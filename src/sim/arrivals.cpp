#include "sim/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace crmd::sim {

namespace {

/// Exponential gap with mean 1/rate, drawn from a uniform in [0, 1). The
/// 1 - u flip keeps the argument of log strictly positive.
double exp_gap(util::Rng& rng, double rate) {
  return -std::log(1.0 - rng.next_double()) / rate;
}

/// The continuous clock at which the Poisson and MMPP streams end.
constexpr auto kClockEnd = static_cast<double>(kMaxArrivalSlots);

/// The job released at `clock`, or nullopt once the clock has reached
/// kClockEnd (an infinite gap included): the stream is over.
std::optional<workload::JobSpec> job_at(double clock, Slot window) {
  if (!(clock < kClockEnd)) {
    return std::nullopt;
  }
  const auto release = static_cast<Slot>(clock);
  return workload::JobSpec{release, release + window};
}

}  // namespace

// ---------------------------------------------------------------------------
// PoissonArrivals

PoissonArrivals::PoissonArrivals(double rate, Slot window)
    : rate_(rate), window_(window) {
  if (!(rate > 0.0) || window <= 0 || window > kMaxArrivalSlots) {
    throw std::invalid_argument(
        "PoissonArrivals: rate must be > 0 and window in [1, 2^62]");
  }
}

std::optional<workload::JobSpec> PoissonArrivals::next(util::Rng& rng) {
  clock_ += exp_gap(rng, rate_);
  return job_at(clock_, window_);
}

// ---------------------------------------------------------------------------
// MmppArrivals

MmppArrivals::MmppArrivals(double rate_lo, double rate_hi, Slot window,
                           Slot dwell)
    : rate_lo_(rate_lo), rate_hi_(rate_hi), window_(window), dwell_(dwell) {
  if (!(rate_lo > 0.0) || !(rate_hi > 0.0) || window <= 0 || dwell <= 0 ||
      window > kMaxArrivalSlots || dwell > kMaxArrivalSlots) {
    throw std::invalid_argument(
        "MmppArrivals: rates must be > 0, window and dwell in [1, 2^62]");
  }
  // next() walks the state flips one dwell at a time, about
  // 1 / (rate * dwell) of them per arrival at the faster state's rate.
  if (std::max(rate_lo, rate_hi) * static_cast<double>(dwell) < 0x1p-32) {
    throw std::invalid_argument(
        "MmppArrivals: max(rate_lo, rate_hi) * dwell must be >= 2^-32 "
        "(else each arrival takes more than about 2^32 state flips)");
  }
}

std::optional<workload::JobSpec> MmppArrivals::next(util::Rng& rng) {
  // Advance through state boundaries until an arrival falls inside the
  // current state. Capping each candidate gap at the state boundary (and
  // redrawing in the next state) is the standard memoryless construction.
  for (;;) {
    if (!(clock_ < kClockEnd)) {
      return std::nullopt;
    }
    if (clock_ >= state_end_) {
      high_ = !high_;
      state_end_ = clock_ + exp_gap(rng, 1.0 / static_cast<double>(dwell_));
    }
    const double rate = high_ ? rate_hi_ : rate_lo_;
    const double candidate = clock_ + exp_gap(rng, rate);
    if (candidate < state_end_) {
      clock_ = candidate;
      return job_at(clock_, window_);
    }
    clock_ = state_end_;  // no arrival before the state flips; move on
  }
}

// ---------------------------------------------------------------------------
// TraceArrivals

TraceArrivals::TraceArrivals(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("TraceArrivals: cannot open '" + path + "'");
  }
  std::string line;
  std::size_t lineno = 0;
  Slot prev_release = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    std::istringstream row(line);
    Slot release = 0;
    Slot deadline = 0;
    char comma = 0;
    if (!(row >> release >> comma >> deadline) || comma != ',') {
      throw std::runtime_error("TraceArrivals: " + path + ":" +
                               std::to_string(lineno) +
                               ": expected 'release,deadline'");
    }
    if (release < 0 || deadline <= release) {
      throw std::runtime_error("TraceArrivals: " + path + ":" +
                               std::to_string(lineno) +
                               ": need release >= 0 and deadline > release");
    }
    if (release < prev_release) {
      throw std::runtime_error("TraceArrivals: " + path + ":" +
                               std::to_string(lineno) +
                               ": releases must be nondecreasing");
    }
    prev_release = release;
    jobs_.push_back({release, deadline});
  }
}

std::optional<workload::JobSpec> TraceArrivals::next(util::Rng& /*rng*/) {
  if (next_ >= jobs_.size()) {
    return std::nullopt;
  }
  return jobs_[next_++];
}

// ---------------------------------------------------------------------------
// VectorArrivals

VectorArrivals::VectorArrivals(std::vector<workload::JobSpec> jobs)
    : jobs_(std::move(jobs)) {}

std::optional<workload::JobSpec> VectorArrivals::next(util::Rng& /*rng*/) {
  if (next_ >= jobs_.size()) {
    return std::nullopt;
  }
  return jobs_[next_++];
}

// ---------------------------------------------------------------------------
// ArrivalSpec

std::unique_ptr<ArrivalProcess> ArrivalSpec::make() const {
  switch (kind) {
    case Kind::kPoisson:
      return std::make_unique<PoissonArrivals>(rate, window);
    case Kind::kMmpp:
      return std::make_unique<MmppArrivals>(rate, rate_hi, window, dwell);
    case Kind::kTrace:
      return std::make_unique<TraceArrivals>(path);
  }
  return nullptr;  // unreachable
}

std::string ArrivalSpec::spec() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kPoisson:
      out << "poisson:" << rate << ':' << window;
      break;
    case Kind::kMmpp:
      out << "mmpp:" << rate << ':' << rate_hi << ':' << window << ':'
          << dwell;
      break;
    case Kind::kTrace:
      out << "trace:" << path;
      break;
  }
  return out.str();
}

std::string arrivals_usage() {
  return "expected poisson:RATE[:WINDOW] | mmpp:RLO:RHI[:WINDOW[:DWELL]] | "
         "trace:PATH";
}

namespace {

std::vector<std::string> split_colon(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const auto colon = s.find(':', begin);
    if (colon == std::string::npos) {
      parts.push_back(s.substr(begin));
      return parts;
    }
    parts.push_back(s.substr(begin, colon - begin));
    begin = colon + 1;
  }
}

bool parse_rate(const std::string& s, double& out) {
  std::size_t used = 0;
  try {
    out = std::stod(s, &used);
  } catch (const std::exception&) {
    return false;
  }
  return used == s.size() && out > 0.0 && std::isfinite(out);
}

bool parse_slots(const std::string& s, Slot& out) {
  std::size_t used = 0;
  try {
    out = std::stoll(s, &used);
  } catch (const std::exception&) {
    return false;
  }
  return used == s.size() && out > 0 && out <= kMaxArrivalSlots;
}

}  // namespace

std::optional<ArrivalSpec> parse_arrivals_spec(const std::string& spec,
                                               std::ostream& diag) {
  const auto fail = [&]() -> std::optional<ArrivalSpec> {
    diag << "error: bad --arrivals spec '" << spec
         << "': " << arrivals_usage() << '\n';
    return std::nullopt;
  };

  const auto parts = split_colon(spec);
  ArrivalSpec out;
  if (parts[0] == "poisson") {
    out.kind = ArrivalSpec::Kind::kPoisson;
    if (parts.size() < 2 || parts.size() > 3 ||
        !parse_rate(parts[1], out.rate)) {
      return fail();
    }
    if (parts.size() == 3 && !parse_slots(parts[2], out.window)) {
      return fail();
    }
    return out;
  }
  if (parts[0] == "mmpp") {
    out.kind = ArrivalSpec::Kind::kMmpp;
    if (parts.size() < 3 || parts.size() > 5 ||
        !parse_rate(parts[1], out.rate) || !parse_rate(parts[2], out.rate_hi)) {
      return fail();
    }
    if (parts.size() >= 4 && !parse_slots(parts[3], out.window)) {
      return fail();
    }
    if (parts.size() == 5 && !parse_slots(parts[4], out.dwell)) {
      return fail();
    }
    return out;
  }
  if (parts[0] == "trace") {
    out.kind = ArrivalSpec::Kind::kTrace;
    // Rejoin: Windows-style paths may legitimately contain ':'.
    if (spec.size() <= 6) {
      return fail();
    }
    out.path = spec.substr(6);
    return out;
  }
  return fail();
}

workload::Instance materialize_arrivals(ArrivalProcess& process, Slot horizon,
                                        util::Rng& rng) {
  workload::Instance instance;
  for (;;) {
    auto job = process.next(rng);
    if (!job || job->release >= horizon) {
      break;
    }
    instance.jobs.push_back(*job);
  }
  instance.normalize();
  return instance;
}

}  // namespace crmd::sim
