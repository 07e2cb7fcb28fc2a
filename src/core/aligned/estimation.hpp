#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

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

/// Replicated step counters of one class's size-estimation run.
///
/// The per-phase success counts are not part of this object: the caller
/// keeps them (`level` counts, index phase - 1) and passes them to record
/// and estimate. A step touches them only when it saw a success, so the
/// counters every step advances stay a small flat record that the class
/// tracker keeps on one cache line with the class's broadcast counters
/// (DESIGN.md §6e).
class EstimationState {
 public:
  /// A placeholder with no steps (complete); the tracker's classes hold
  /// one until their first window starts.
  EstimationState() = default;

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

  /// Observes one active step's outcome and advances; a success counts in
  /// `successes[phase - 1]`, so `successes` holds the run's `level` counts.
  void record(sim::SlotOutcome outcome, std::span<std::int64_t> successes) {
    assert(!complete());
    if (outcome == sim::SlotOutcome::kSuccess) {
      ++successes[static_cast<std::size_t>(phase_ - 1)];
    }
    if (++step_in_phase_ == phase_len_) {
      step_in_phase_ = 0;
      ++phase_;
      tx_prob_ = std::ldexp(1.0, -phase_);
    }
  }

  /// The estimate n_ℓ = τ·2^j from the per-phase success counts this run
  /// recorded (0 when no phase saw a success). Only valid once complete().
  [[nodiscard]] std::int64_t estimate(
      std::span<const std::int64_t> successes, std::int64_t tau) const;

 private:
  int level_ = 0;
  // The step counter kept as (phase, step within it), so the per-step
  // path needs no division; tx_prob_ = 1/2^phase_ follows each phase.
  int phase_ = 1;
  std::int64_t step_in_phase_ = 0;
  std::int64_t phase_len_ = 0;
  double tx_prob_ = 0.5;
};

}  // namespace crmd::core::aligned
