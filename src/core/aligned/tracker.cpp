#include "core/aligned/tracker.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace crmd::core::aligned {

Tracker::Tracker(const Params& params, int min_class, int own_class)
    : params_(params), min_class_(min_class), own_class_(own_class) {
  assert(1 <= min_class && min_class <= own_class);
  classes_.resize(static_cast<std::size_t>(own_class - min_class) + 1);
}

void Tracker::reset_class(int cls) {
  ClassState& c = state(cls);
  c.estimation.emplace(params_, cls);
  c.broadcast.reset();
  c.broadcast_step = 0;
  c.estimate = -1;
  c.complete = false;
}

void Tracker::begin_slot(Slot t) {
  // Slots may arrive with gaps (clock skew slips the perceived index ahead;
  // crash/stall faults make a job miss slots entirely), but never backwards.
  assert(t >= 0);
  assert(!started_ || t > last_slot_);
  const bool first = !started_;
  started_ = true;
  const Slot prev = last_slot_;
  last_slot_ = t;

  // Reset iff a window boundary (multiple of 2^cls) lies in (prev, t],
  // i.e. iff t >> cls > prev >> cls. As 0 <= prev < t, that holds exactly
  // for the classes up to the highest bit in which t and prev differ, so
  // one bit scan finds them all, with no division. On the first call every
  // tracked class starts fresh; fault-free, the first slot is the owning
  // job's window start — a boundary for every tracked (smaller) class —
  // and later slots are consecutive, so this reduces exactly to the
  // textbook "reset when t % 2^cls == 0" rule.
  int top = own_class_;
  if (!first) {
    const auto diff = static_cast<std::uint64_t>(t ^ prev);
    top = std::min(top, static_cast<int>(std::bit_width(diff)) - 1);
  }
  for (int cls = min_class_; cls <= top; ++cls) {
    reset_class(cls);
  }
  active_ = -1;
  for (int cls = min_class_; cls <= own_class_; ++cls) {
    if (!state(cls).complete) {
      active_ = cls;
      break;
    }
  }
}

void Tracker::end_slot(sim::SlotOutcome outcome) {
  assert(started_);
  if (active_ == -1) {
    return;
  }
  ClassState& c = state(active_);
  assert(!c.complete);
  if (c.estimation.has_value()) {
    c.estimation->record(outcome);
    if (c.estimation->complete()) {
      c.estimate = c.estimation->estimate();
      c.broadcast.emplace(params_, active_, c.estimate);
      c.estimation.reset();
      if (c.broadcast->total_steps() == 0) {
        c.complete = true;  // believed-empty class: nothing to broadcast
      }
    }
    return;
  }
  assert(c.broadcast.has_value());
  ++c.broadcast_step;
  if (c.broadcast_step >= c.broadcast->total_steps()) {
    c.complete = true;
  }
}

}  // namespace crmd::core::aligned
