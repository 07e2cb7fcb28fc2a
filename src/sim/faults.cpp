#include "sim/faults.hpp"

#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace crmd::sim {

namespace {

void check_rate(double value, const char* name) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(std::string("FaultPlan: ") + name +
                                " must be in [0, 1], got " +
                                std::to_string(value));
  }
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kFeedbackCorrupt:
      return "feedback-corrupt";
    case FaultKind::kFeedbackLoss:
      return "feedback-loss";
    case FaultKind::kClockSkew:
      return "clock-skew";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRestart:
      return "restart";
  }
  return "unknown";
}

bool FaultPlan::any() const noexcept {
  return feedback_corrupt_rate > 0.0 || feedback_loss_rate > 0.0 ||
         clock_skew_rate > 0.0 || crash_rate > 0.0;
}

void FaultPlan::validate() const {
  check_rate(feedback_corrupt_rate, "feedback_corrupt_rate");
  check_rate(feedback_loss_rate, "feedback_loss_rate");
  check_rate(clock_skew_rate, "clock_skew_rate");
  check_rate(crash_rate, "crash_rate");
  check_rate(crash_permanent_frac, "crash_permanent_frac");
  if (stall_min < 1 || stall_max < stall_min) {
    throw std::invalid_argument(
        "FaultPlan: require 1 <= stall_min <= stall_max, got [" +
        std::to_string(stall_min) + ", " + std::to_string(stall_max) + "]");
  }
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed)
    : plan_(plan),
      master_(util::Rng(seed).child(0x4641554C54ULL /* "FAULT" */)) {
  plan_.validate();
}

void FaultInjector::record(Slot slot, FaultKind kind, JobId job) {
  ++counts_[static_cast<std::size_t>(kind)];
  ++total_;
  CRMD_TRACE(tracer_, obs::EventKind::kFault, slot, job,
             static_cast<std::int64_t>(kind), 0, 0.0, to_string(kind));
}

std::int64_t FaultInjector::count(FaultKind kind) const noexcept {
  return counts_[static_cast<std::size_t>(kind)];
}

FaultInjector::JobHealth FaultInjector::crash(JobFaults& jf, JobId id,
                                              Slot slot) {
  record(slot, FaultKind::kCrash, id);
  if (jf.rng.bernoulli(plan_.crash_permanent_frac)) {
    jf.dead = true;
    return JobHealth::kDead;
  }
  jf.dark_until = slot + jf.rng.range(plan_.stall_min, plan_.stall_max);
  return JobHealth::kDark;
}

}  // namespace crmd::sim
