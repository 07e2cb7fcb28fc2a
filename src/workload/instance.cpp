#include "workload/instance.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/math.hpp"

namespace crmd::workload {

Slot Instance::min_release() const noexcept {
  Slot best = 0;
  bool first = true;
  for (const auto& j : jobs) {
    best = first ? j.release : std::min(best, j.release);
    first = false;
  }
  return best;
}

Slot Instance::max_deadline() const noexcept {
  Slot best = 0;
  for (const auto& j : jobs) {
    best = std::max(best, j.deadline);
  }
  return best;
}

Slot Instance::min_window() const noexcept {
  Slot best = 0;
  bool first = true;
  for (const auto& j : jobs) {
    best = first ? j.window() : std::min(best, j.window());
    first = false;
  }
  return best;
}

Slot Instance::max_window() const noexcept {
  Slot best = 0;
  for (const auto& j : jobs) {
    best = std::max(best, j.window());
  }
  return best;
}

void Instance::normalize() {
  const auto by_release = [](const JobSpec& a, const JobSpec& b) {
    if (a.release != b.release) {
      return a.release < b.release;
    }
    return a.deadline < b.deadline;
  };
  // Most instances arrive sorted (every generator's output, and each
  // Simulation normalizes its copy again). A JobSpec is nothing but its two
  // sort keys, so skipping the sort then changes nothing.
  if (!std::is_sorted(jobs.begin(), jobs.end(), by_release)) {
    std::sort(jobs.begin(), jobs.end(), by_release);
  }
}

bool Instance::valid() const noexcept {
  return std::all_of(jobs.begin(), jobs.end(), [](const JobSpec& j) {
    return j.release >= 0 && j.window() >= 1;
  });
}

void Instance::validate() const {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& j = jobs[i];
    if (j.release < 0) {
      throw std::invalid_argument(
          "Instance: job " + std::to_string(i) + " has negative release " +
          std::to_string(j.release));
    }
    if (j.window() < 1) {
      throw std::invalid_argument(
          "Instance: job " + std::to_string(i) + " has empty window [" +
          std::to_string(j.release) + ", " + std::to_string(j.deadline) +
          ") — require d_j > r_j");
    }
  }
}

bool Instance::is_aligned() const noexcept {
  return std::all_of(jobs.begin(), jobs.end(), [](const JobSpec& j) {
    const Slot w = j.window();
    return util::is_pow2(w) && j.release % w == 0;
  });
}

}  // namespace crmd::workload
