#pragma once

#include <cassert>
#include <cstdint>

#include "core/punctual/round.hpp"
#include "util/types.hpp"

/// \file clock.hpp
/// Per-job round and leader-frame clocks for PUNCTUAL (§4).
///
/// A job measures time only in slots-since-its-own-release. Once it locks
/// onto the round grid (by hearing two consecutive busy slots, or by
/// announcing a fresh frame itself), it knows each slot's offset within a
/// round and counts *local* rounds. The leader's broadcasts then relate
/// local rounds to the shared *leader frame*: hearing "time = T" in local
/// round r fixes the offset base = T − r, after which
/// leader_round(t) = local_round(t) + base for every slot t. All followers
/// hear the same broadcasts, so they compute identical leader rounds —
/// that shared clock is what lets them run ALIGNED together.

namespace crmd::core::punctual {

/// Round-grid plus leader-frame bookkeeping for one job. The queries a job
/// makes every slot are defined here so they inline into the protocol's
/// per-slot path; the state changes (sync, a new frame) stay out of line.
class RoundClock {
 public:
  /// True once the job knows the round grid.
  [[nodiscard]] bool synced() const noexcept { return synced_; }

  /// Declares `anchor` (slots since release) to be offset 0 of a round.
  void sync(Slot anchor) noexcept;

  /// Offset of slot `t` within its round (0 .. kRoundLength-1). Requires
  /// synced() and t >= anchor.
  [[nodiscard]] std::int64_t offset(Slot t) const noexcept {
    assert(synced_ && t >= anchor_);
    return (t - anchor_) % kRoundLength;
  }

  /// Role of slot `t`. Requires synced().
  [[nodiscard]] SlotType type(Slot t) const noexcept {
    return slot_type(offset(t));
  }

  /// Rounds elapsed since the anchor (the round containing `t`).
  [[nodiscard]] std::int64_t local_round(Slot t) const noexcept {
    assert(synced_ && t >= anchor_);
    return (t - anchor_) / kRoundLength;
  }

  /// True once a leader's time broadcast fixed the leader frame.
  [[nodiscard]] bool frame_known() const noexcept { return frame_known_; }

  /// Fixes the leader frame from a heartbeat: "the round containing slot
  /// `t` is leader round `leader_time`".
  void set_frame(std::int64_t leader_time, Slot t) noexcept;

  /// Leader-frame index of the round containing `t`. Requires
  /// frame_known().
  [[nodiscard]] std::int64_t leader_round(Slot t) const noexcept {
    assert(frame_known_);
    return local_round(t) + frame_base_;
  }

  /// True when a heartbeat claiming `leader_time` at slot `t` matches the
  /// currently extrapolated frame (i.e. the same leader lineage continues).
  [[nodiscard]] bool frame_matches(std::int64_t leader_time,
                                   Slot t) const noexcept;

  /// Forgets the leader frame (the lineage ended and a fresh frame may
  /// replace it).
  void clear_frame() noexcept { frame_known_ = false; }

 private:
  bool synced_ = false;
  Slot anchor_ = 0;
  bool frame_known_ = false;
  std::int64_t frame_base_ = 0;
};

}  // namespace crmd::core::punctual
