#include "core/aligned/tracker.hpp"

#include <algorithm>
#include <cassert>

namespace crmd::core::aligned {

Tracker::Tracker(int min_class, int own_class)
    : min_class_(min_class), own_class_(own_class) {
  assert(1 <= min_class && min_class <= own_class);
  assert(own_class - min_class < 64);
  const auto classes = static_cast<std::size_t>(own_class - min_class) + 1;
  counters_ = std::make_unique<Counters[]>(classes);
  broadcasts_ = std::make_unique<BroadcastSchedule[]>(classes);
  successes_ = std::make_unique<std::int64_t[]>(static_cast<std::size_t>(
      (own_class * (own_class + 1) - min_class * (min_class - 1)) / 2));
  incomplete_ = (bit(own_class) << 1) - 1;
}

void Tracker::reset_classes(int top, const Params& params) {
  const std::uint64_t reset = (bit(top) << 1) - 1;
  incomplete_ |= reset;
  estimating_ |= reset;
  for (int cls = min_class_; cls <= top; ++cls) {
    Counters& c = counters(cls);
    c.estimation = EstimationState(params, cls);
    c.broadcast_step = 0;
    c.estimate = -1;
    const std::span<std::int64_t> counts = successes(cls);
    std::fill(counts.begin(), counts.end(), 0);
  }
}

void Tracker::start_broadcast(const Params& params) {
  Counters& c = counters(active_);
  c.estimate = c.estimation.estimate(successes(active_), params.tau);
  BroadcastSchedule& layout = broadcasts_[index(active_)];
  layout = BroadcastSchedule(params, active_, c.estimate);
  c.broadcast_total = layout.total_steps();
  estimating_ &= ~bit(active_);
  if (c.broadcast_total == 0) {
    incomplete_ &= ~bit(active_);  // believed-empty class: nothing to broadcast
  }
}

}  // namespace crmd::core::aligned
