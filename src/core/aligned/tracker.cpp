#include "core/aligned/tracker.hpp"

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

}  // namespace crmd::core::aligned
