#include "core/aligned/tracker.hpp"

#include <cassert>

namespace crmd::core::aligned {

Tracker::Tracker(const Params& params, int min_class, int own_class)
    : params_(params), min_class_(min_class), own_class_(own_class) {
  assert(1 <= min_class && min_class <= own_class);
  assert(own_class - min_class < 64);
  classes_.resize(static_cast<std::size_t>(own_class - min_class) + 1);
  incomplete_ = (bit(own_class) << 1) - 1;
}

void Tracker::reset_classes(int top) {
  incomplete_ |= (bit(top) << 1) - 1;
  for (int cls = min_class_; cls <= top; ++cls) {
    ClassState& c = state(cls);
    c.estimation.emplace(params_, cls);
    c.broadcast.reset();
    c.broadcast_step = 0;
    c.estimate = -1;
  }
}

void Tracker::start_broadcast(ClassState& c) {
  c.estimate = c.estimation->estimate();
  c.broadcast.emplace(params_, active_, c.estimate);
  c.estimation.reset();
  if (c.broadcast->total_steps() == 0) {
    incomplete_ &= ~bit(active_);  // believed-empty class: nothing to broadcast
  }
}

}  // namespace crmd::core::aligned
