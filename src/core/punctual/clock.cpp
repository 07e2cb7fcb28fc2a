#include "core/punctual/clock.hpp"

#include <cassert>

namespace crmd::core::punctual {

void RoundClock::sync(Slot anchor) noexcept {
  assert(anchor >= 0);
  anchor_ = anchor;
  synced_ = true;
}

void RoundClock::set_frame(std::int64_t leader_time, Slot t) noexcept {
  frame_base_ = leader_time - local_round(t);
  frame_known_ = true;
}

bool RoundClock::frame_matches(std::int64_t leader_time,
                               Slot t) const noexcept {
  return frame_known_ && leader_round(t) == leader_time;
}

}  // namespace crmd::core::punctual
