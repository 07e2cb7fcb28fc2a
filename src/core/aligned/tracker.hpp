#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "core/aligned/broadcast.hpp"
#include "core/aligned/estimation.hpp"
#include "core/params.hpp"
#include "sim/channel.hpp"
#include "util/types.hpp"

/// \file tracker.hpp
/// The replicated pecking-order schedule (§3).
///
/// At any time exactly one job class is *active*: the smallest class whose
/// current window's algorithm (estimation followed by broadcast) has not
/// completed. Every live job runs an identical copy of this tracker,
/// advancing it from two inputs only — the slot clock (window boundaries
/// reset classes: each "critical time" starts a fresh window) and the
/// observed channel outcome of each slot. Because a job activates at its
/// own window start, which is simultaneously a boundary for every smaller
/// class, all replicas of all live jobs agree on every tracked class's
/// state (Lemma 7); tests/test_aligned_invariants.cpp checks this
/// agreement as an executable invariant. So where every job of a run hears
/// the same feedback, its ALIGNED jobs step one replica they share instead
/// of one each (AlignedProtocol, DESIGN.md §6e).
///
/// The same machinery serves PUNCTUAL's followers with "slot" reinterpreted
/// as the leader-frame round index (§4's FOLLOW-THE-LEADER runs ALIGNED
/// inside the aligned slot of each round).

namespace crmd::core::aligned {

/// Replicated view of the pecking order across classes
/// [min_class, own_class].
///
/// A replica is stepped once per slot — by the one job that owns it, or,
/// when the jobs of a run share it, by the first of them to reach it — so
/// begin_slot and end_slot are idempotent per slot. Both are defined here
/// and inline into the protocols' per-slot path; what runs only at a window
/// boundary or once per class window (reset_classes, start_broadcast) stays
/// out of line. The tracker holds no Params: its owner passes its own to
/// begin_slot and end_slot, which hand them to those two calls.
///
/// Layout (DESIGN.md §6e): a slot reads the tracker's own fields and, in
/// end_slot, the active class's counters, one 64 B record per class. The
/// estimation's success counts and the broadcast layouts live apart; a
/// slot touches them only on a success or in the own class's broadcast.
class Tracker {
 public:
  /// Tracks classes min_class..own_class (inclusive); requires
  /// 1 <= min_class <= own_class and fewer than 64 classes.
  Tracker(int min_class, int own_class);

  /// Starts slot `t`: applies window-boundary resets, then fixes the active
  /// class for this slot. Calls must use nondecreasing (not necessarily
  /// consecutive) values of `t` — fault injection (clock skew, crash
  /// stalls) can make the perceived slot index jump ahead. A call with the
  /// `t` of the previous one does nothing: a replica the jobs of a run
  /// share is begun once per slot, by whichever job steps it first. Every
  /// class whose dyadic boundary was crossed since the previous slot is
  /// reset; on the first call all tracked classes start fresh. Fault-free
  /// (first call at the owning job's window start, consecutive slots) this
  /// is exactly the §3 "reset at critical times" rule.
  void begin_slot(Slot t, const Params& params) {
    if (t == last_slot_) {
      return;  // already begun at t
    }
    // Slots may arrive with gaps (clock skew slips the perceived index
    // ahead; crash/stall faults make a job miss slots entirely), but never
    // backwards.
    assert(t >= 0);
    assert(t > last_slot_);
    const Slot prev = last_slot_;
    last_slot_ = t;
    open_ = true;

    // Reset iff a window boundary (multiple of 2^cls) lies in (prev, t],
    // i.e. iff t >> cls > prev >> cls. As prev < t, that holds exactly for
    // the classes up to the highest bit in which t and prev differ, so one
    // bit scan finds them all, with no division. Before the first call
    // prev is -1, which differs from t in bit 63, so every tracked class
    // starts fresh; fault-free, the first slot is the owning job's window
    // start — a boundary for every tracked (smaller) class — and later
    // slots are consecutive, so this reduces exactly to the textbook
    // "reset when t % 2^cls == 0" rule.
    const auto diff = static_cast<std::uint64_t>(t ^ prev);
    const int top =
        std::min(own_class_, static_cast<int>(std::bit_width(diff)) - 1);
    if (top >= min_class_) {
      reset_classes(top, params);
    }
    active_ = incomplete_ == 0
                  ? -1
                  : min_class_ + std::countr_zero(incomplete_);
    active_estimating_ = active_ != -1 && estimating(active_);
  }

  /// The class taking an active step this slot, or -1 when every tracked
  /// class has completed. Fixed by begin_slot until the next slot.
  [[nodiscard]] int active_class() const noexcept { return active_; }

  /// True when the active class was in its estimation stage as this slot
  /// began (end_slot may end the estimation).
  [[nodiscard]] bool active_estimating() const noexcept {
    return active_estimating_;
  }

  /// Finishes the slot begun last with the observed channel outcome,
  /// advancing the active class's algorithm by one active step. A second
  /// call for the same slot does nothing, as begin_slot's does.
  void end_slot(sim::SlotOutcome outcome, const Params& params) {
    if (!open_) {
      return;  // already ended
    }
    open_ = false;
    const int cls = active_;
    if (cls == -1) {
      return;
    }
    assert(!complete(cls));
    Counters& c = counters(cls);
    if (estimating(cls)) {
      c.estimation.record(outcome, successes(cls));
      if (c.estimation.complete()) {
        start_broadcast(params);
      }
      return;
    }
    if (++c.broadcast_step >= c.broadcast_total) {
      incomplete_ &= ~bit(cls);
    }
  }

  /// Read-only snapshot of one tracked class's progress.
  struct ClassView {
    /// True while the class is in its estimation stage.
    bool estimating = false;
    /// Estimation bookkeeping (null once estimation finished).
    const EstimationState* estimation = nullptr;
    /// Broadcast layout (null until the estimate is known).
    const BroadcastSchedule* broadcast = nullptr;
    /// Active steps taken inside the broadcast stage.
    std::int64_t broadcast_step = 0;
    /// The class's estimate; -1 while still estimating.
    std::int64_t estimate = -1;
    /// True once the class's algorithm for its current window completed.
    bool complete = false;
  };

  /// Snapshot of class `cls` (min_class <= cls <= own_class).
  [[nodiscard]] ClassView view(int cls) const {
    const Counters& c = counters(cls);
    ClassView v;
    v.estimating = estimating(cls);
    v.estimation = v.estimating ? &c.estimation : nullptr;
    v.broadcast = v.estimating ? nullptr : &broadcasts_[index(cls)];
    v.broadcast_step = c.broadcast_step;
    v.estimate = c.estimate;
    v.complete = complete(cls);
    return v;
  }

  /// True while class `cls` is in its estimation stage
  /// (view(cls).estimating, without building the view).
  [[nodiscard]] bool estimating(int cls) const noexcept {
    assert(cls >= min_class_ && cls <= own_class_);
    return (estimating_ & bit(cls)) != 0;
  }

  /// True once class `cls`'s algorithm for its current window completed
  /// (view(cls).complete, without building the view).
  [[nodiscard]] bool complete(int cls) const noexcept {
    assert(cls >= min_class_ && cls <= own_class_);
    return (incomplete_ & bit(cls)) == 0;
  }

  [[nodiscard]] int min_class() const noexcept { return min_class_; }
  [[nodiscard]] int own_class() const noexcept { return own_class_; }

 private:
  /// One class's per-step counters: a slot of that class reads and writes
  /// nothing else of it but its success counts, and those only on a
  /// success. Which stage is live is kept in `estimating_` alone. Aligned
  /// to a cache line, so a record never spans two.
  struct alignas(64) Counters {
    EstimationState estimation;
    /// Active steps taken inside the broadcast stage, and its length.
    std::int64_t broadcast_step = 0;
    std::int64_t broadcast_total = 0;
    std::int64_t estimate = -1;
  };

  /// Starts a fresh window for classes min_class..top.
  void reset_classes(int top, const Params& params);
  /// Fixes the active class's estimate and lays out its broadcast stage.
  void start_broadcast(const Params& params);
  [[nodiscard]] std::uint64_t bit(int cls) const noexcept {
    return std::uint64_t{1} << (cls - min_class_);
  }
  [[nodiscard]] std::size_t index(int cls) const noexcept {
    assert(cls >= min_class_ && cls <= own_class_);
    return static_cast<std::size_t>(cls - min_class_);
  }
  [[nodiscard]] Counters& counters(int cls) { return counters_[index(cls)]; }
  [[nodiscard]] const Counters& counters(int cls) const {
    return counters_[index(cls)];
  }
  /// Class `cls`'s estimation success counts, one per phase: classes
  /// min_class..cls-1 hold min_class + ... + (cls-1) counts before them.
  [[nodiscard]] std::span<std::int64_t> successes(int cls) noexcept {
    const auto before = static_cast<std::size_t>(
        (cls * (cls - 1) - min_class_ * (min_class_ - 1)) / 2);
    return {successes_.get() + before, static_cast<std::size_t>(cls)};
  }

  /// Bit cls - min_class is set while class cls has not completed its
  /// current window's algorithm, so the active class is the lowest set
  /// bit.
  std::uint64_t incomplete_ = 0;
  /// Bit cls - min_class is set while class cls is in its estimation
  /// stage; clear once its estimate is known.
  std::uint64_t estimating_ = 0;
  Slot last_slot_ = -1;  ///< -1 until the first begin_slot
  int min_class_;
  int own_class_;
  int active_ = -1;
  bool active_estimating_ = false;
  bool open_ = false;  ///< begun at last_slot_ and not yet ended
  // Arrays rather than vectors: their lengths follow from the class range,
  // and the tracker sits inside every ALIGNED job.
  std::unique_ptr<Counters[]> counters_;             // [cls - min_class]
  std::unique_ptr<std::int64_t[]> successes_;        // see successes(cls)
  std::unique_ptr<BroadcastSchedule[]> broadcasts_;  // [cls - min_class]
};

}  // namespace crmd::core::aligned
