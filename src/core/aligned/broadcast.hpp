#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/params.hpp"

/// \file broadcast.hpp
/// ALIGNED's broadcast ("backon") schedule (§3, "Broadcast").
///
/// For class ℓ with estimate n (a power of two), the stage consists of
/// *decay phases* of lengths λn, λn/2, …, λ·2 followed by ℓ *equal phases*
/// of length λℓ. Every phase of length λX splits into λ subphases of X
/// slots; in each subphase every still-live job picks one uniformly random
/// slot of the subphase for its data transmission. The decay phases drain
/// the class geometrically (Lemma 13's induction); the ℓ trailing equal
/// phases convert "exponentially small in X" into "polynomially small in
/// the window" failure bounds when X would dip below ℓ.
///
/// This class computes the slot geometry only (pure function of ℓ, n, λ);
/// the random choices live in the protocol.

namespace crmd::core::aligned {

/// Immutable description of one class's broadcast-stage layout.
class BroadcastSchedule {
 public:
  /// An empty stage (no steps); the tracker's classes hold one until their
  /// estimate is known.
  BroadcastSchedule() = default;

  /// Layout for class `level` with estimate `estimate` (0, or a power of
  /// two; estimates produced by EstimationState are τ·2^j).
  BroadcastSchedule(const Params& params, int level, std::int64_t estimate);

  /// Total active steps in the stage (= Params::broadcast_steps).
  [[nodiscard]] std::int64_t total_steps() const noexcept { return total_; }

  /// Where a given active step (0-based, < total_steps()) falls.
  struct Position {
    /// Subphase length X: the job picks one random slot out of these.
    std::int64_t subphase_len = 0;
    /// Monotone id of the subphase across the whole stage; changes exactly
    /// when a new subphase begins (the protocol redraws its slot then).
    std::int64_t subphase_id = 0;
    /// Offset of this step inside its subphase (0 .. subphase_len-1).
    std::int64_t offset = 0;
  };

  /// Maps an active step index to its subphase coordinates. A job asks this
  /// in every slot of its class's broadcast stage, so it is defined here.
  [[nodiscard]] Position position(std::int64_t step) const {
    assert(step >= 0 && step < total_);
    // Binary search for the phase containing `step`.
    std::size_t lo = 0;
    std::size_t hi = lens_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi + 1) / 2;
      if (starts_[mid] <= step) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    const std::int64_t x = lens_[lo];
    const std::int64_t within_phase = step - starts_[lo];
    Position pos;
    pos.subphase_len = x;
    pos.offset = within_phase % x;
    // Subphase id: λ subphases per earlier phase plus the index here.
    pos.subphase_id =
        static_cast<std::int64_t>(lo) * lambda_ + within_phase / x;
    return pos;
  }

  /// Number of phases (decay + equal).
  [[nodiscard]] std::size_t phases() const noexcept { return lens_.size(); }

  /// Subphase length X of phase `i` (0-based).
  [[nodiscard]] std::int64_t phase_subphase_len(std::size_t i) const {
    return lens_[i];
  }

 private:
  int lambda_ = 0;
  std::vector<std::int64_t> lens_;    // subphase length per phase
  std::vector<std::int64_t> starts_;  // first step index of each phase
  std::int64_t total_ = 0;
};

}  // namespace crmd::core::aligned
