#include "core/aligned/estimation.hpp"

#include <cassert>

#include "util/math.hpp"

namespace crmd::core::aligned {

EstimationState::EstimationState(const Params& params, int level)
    : level_(level),
      phase_len_(params.estimation_phase_len(level)),
      tau_(params.tau),
      successes_(static_cast<std::size_t>(level), 0) {
  assert(level >= 1);
}

std::int64_t EstimationState::estimate() const {
  assert(complete());
  std::int64_t best_count = 0;
  int best_phase = 0;  // 0 = no phase saw any success
  for (int phase = 1; phase <= level_; ++phase) {
    const std::int64_t count =
        successes_[static_cast<std::size_t>(phase - 1)];
    // Strict '>' makes the tie-break "smallest phase with the maximum",
    // a fixed rule every replica applies identically.
    if (count > best_count) {
      best_count = count;
      best_phase = phase;
    }
  }
  return best_phase == 0 ? 0 : tau_ * util::pow2(best_phase);
}

std::int64_t EstimationState::phase_successes(int phase) const {
  assert(phase >= 1 && phase <= level_);
  return successes_[static_cast<std::size_t>(phase - 1)];
}

}  // namespace crmd::core::aligned
