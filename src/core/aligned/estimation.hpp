#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "sim/channel.hpp"

/// \file estimation.hpp
/// ALIGNED's size-estimation protocol (§3, "Size-estimation protocol").
///
/// For job class ℓ the protocol spans T_ℓ = λℓ² active steps, divided into
/// ℓ phases of λℓ steps. During phase i (1-based) every job in the class
/// transmits a control message with probability 1/2^i; everyone counts the
/// successful transmissions per phase. The estimate is n_ℓ = τ·2^j for the
/// phase j with the most successes (Lemma 8: with probability
/// 1 − 1/w^Θ(λ), 2n̂ <= n_ℓ <= τ²n̂ whenever the protocol completes and
/// p_jam <= 1/2). Zero successes everywhere resolve to estimate 0 — the
/// class believes itself empty.
///
/// This class is *pure bookkeeping over observed outcomes*: both the
/// acting jobs (class members) and the passive observers (larger classes
/// simulating the schedule) advance an identical copy, which is what makes
/// the replicated pecking-order tracker consistent (Lemma 7).

namespace crmd::core::aligned {

/// Replicated state of one class's size-estimation run.
class EstimationState {
 public:
  /// Fresh estimation for class `level` (>= 1).
  EstimationState(const Params& params, int level);

  /// True once all λℓ² steps have been observed.
  [[nodiscard]] bool complete() const noexcept { return phase_ > level_; }

  /// Active steps observed so far (0 .. λℓ²).
  [[nodiscard]] std::int64_t steps_taken() const noexcept {
    return (phase_ - 1) * phase_len_ + step_in_phase_;
  }

  /// 1-based phase of the *next* active step. Only valid while !complete().
  [[nodiscard]] int current_phase() const noexcept {
    assert(!complete());
    return phase_;
  }

  /// Transmission probability class members use in the next active step
  /// (1/2^phase). Only valid while !complete().
  [[nodiscard]] double tx_probability() const noexcept {
    assert(!complete());
    return tx_prob_;
  }

  /// Observes one active step's outcome and advances.
  void record(sim::SlotOutcome outcome) {
    assert(!complete());
    if (outcome == sim::SlotOutcome::kSuccess) {
      ++successes_[static_cast<std::size_t>(phase_ - 1)];
    }
    if (++step_in_phase_ == phase_len_) {
      step_in_phase_ = 0;
      ++phase_;
      tx_prob_ = std::ldexp(1.0, -phase_);
    }
  }

  /// The estimate n_ℓ = τ·2^j (0 when no phase saw a success). Only valid
  /// once complete().
  [[nodiscard]] std::int64_t estimate() const;

  /// Successes counted in the given 1-based phase (for diagnostics/tests).
  [[nodiscard]] std::int64_t phase_successes(int phase) const;

 private:
  int level_;
  std::int64_t phase_len_;
  std::int64_t tau_;
  // The step counter kept as (phase, step within it), so the per-step
  // path needs no division; tx_prob_ = 1/2^phase_ follows each phase.
  int phase_ = 1;
  std::int64_t step_in_phase_ = 0;
  double tx_prob_ = 0.5;
  std::vector<std::int64_t> successes_;  // [phase-1]
};

}  // namespace crmd::core::aligned
