#pragma once

#include <algorithm>
#include <cstdint>

#include "util/types.hpp"

/// \file params.hpp
/// The protocol constants the paper leaves symbolic.
///
/// The paper writes λ for "a parameter that affects the failure
/// probability" (each occurrence tunable, one symbol used for simplicity),
/// fixes τ = 64 in the proof of Lemma 8, and needs "sufficiently small" γ.
/// All of them — plus the slingshot/anarchist exponents of §4 — live here
/// so experiments can sweep them. Defaults are chosen to be *runnable at
/// laptop scale* (the proof-grade constants would need astronomically large
/// windows); EXPERIMENTS.md quantifies the resulting constants-vs-
/// asymptotics gap.

namespace crmd::core {

/// All tunable constants for UNIFORM, ALIGNED and PUNCTUAL.
struct Params {
  // --- shared -------------------------------------------------------------

  /// λ: repetition parameter. Estimation phases have λℓ steps, broadcast
  /// phases λ subphases, the slingshot runs λ·polylog election slots, and
  /// anarchists transmit with probability λ·log(w)/w.
  int lambda = 2;

  /// Global cap on any single transmission probability. Lemma 2 assumes no
  /// job sends with probability above 1/2 (round-start markers, which are
  /// deliberate collisions, are exempt).
  double max_tx_prob = 0.5;

  // --- UNIFORM (§2) ---------------------------------------------------------

  /// Number of uniformly random slots each UNIFORM job transmits in (the
  /// paper's Θ(1)), at most kMaxUniformAttempts.
  int uniform_attempts = 1;
  /// UNIFORM holds its attempt offsets inline, in an array of this size.
  static constexpr int kMaxUniformAttempts = 4;

  // --- ALIGNED (§3) ---------------------------------------------------------

  /// τ: the estimate is τ·2^j for the best phase j; τ = 64 per Lemma 8's
  /// proof. Must be a power of two so estimates stay powers of two.
  std::int64_t tau = 64;

  /// ℓ_min: the smallest job class the pecking order tracks; equivalently
  /// the protocol-wide promise that every window has size >= 2^min_class
  /// (the paper's w_0 >= 1/γ). Classes below this never exist.
  int min_class = 9;

  /// Ablation (on = paper): defer to smaller job classes (§3's pecking
  /// order). Off, every class runs its own-window algorithm as if alone,
  /// so nested classes interfere — the design choice E14d quantifies.
  bool pecking_order = true;

  // --- PUNCTUAL (§4) --------------------------------------------------------

  /// a: pullback transmission probability is s/(w · (log2 w)^a) per
  /// election slot. Paper: a = 3.
  double pullback_prob_log_exp = 3.0;

  /// s: scale on the pullback probability (paper: 1). The paper's claim
  /// rate only elects leaders at asymptotic window sizes; experiments that
  /// want to exercise election/handoff at laptop scale raise this (an
  /// explicit constants-vs-asymptotics knob, reported by every bench that
  /// uses it).
  double pullback_prob_scale = 1.0;

  /// b: the pullback stage spans λ·(log2 w)^b election slots. Paper: b = 7
  /// — far beyond any practical window, so the stage is also capped by
  /// `pullback_window_frac` below.
  double pullback_len_log_exp = 7.0;

  /// Cap the pullback stage at this fraction of the job's window (measured
  /// in rounds) so the protocol always reaches its recheck/anarchist
  /// decision with most of the window left.
  double pullback_window_frac = 0.25;

  /// c: anarchists transmit with probability λ·(log2 w)^c / w per anarchy
  /// slot. Paper: c = 1.
  double anarchist_log_exp = 1.0;

  /// Windows smaller than this many slots skip the round machinery entirely
  /// and transmit anarchist-style in every slot (degenerate-window
  /// fallback; γ-slack instances for sensible γ never trigger it).
  Slot punctual_min_window = 64;

  /// Extension (off = paper-faithful): a follower whose ALIGNED run
  /// truncates without success becomes an anarchist for the remainder of
  /// its window instead of giving up.
  bool anarchist_fallback_on_truncation = false;

  /// Graceful-degradation extension (0 = off = paper-faithful): number of
  /// physically impossible observations (transmitted yet heard silence;
  /// busy believed-guard slot) a PUNCTUAL job tolerates before concluding
  /// its round grid or feedback can no longer be trusted and falling back
  /// to the clock-free desperate/anarchist path for the rest of its window.
  /// Meaningful under fault injection (clock skew, feedback loss); keep 0
  /// for fault-free runs — mixed workloads produce rare benign guard-slot
  /// noise (desperate tiny-window jobs), and a small tolerance would
  /// needlessly demote healthy followers.
  int desync_tolerance = 0;

  // --- NOCD (no-collision-detection family, DESIGN.md §6g) ------------------

  /// Slots per success-only inference epoch. A NOCD job aggregates the
  /// successes it perceives over one epoch before updating its density
  /// exponent; longer epochs average out noise at the cost of slower
  /// re-estimation (Jiang–Zheng's batches, collapsed to a constant length
  /// runnable at laptop scale).
  std::int64_t nocd_epoch_len = 8;

  /// Consecutive fully-dry backoff ladders (k_max+1 epochs each, zero
  /// successes perceived anywhere) the robust variant tolerates before
  /// concluding the silence is unexplained — adversarial jamming, or a
  /// channel that emptied unheard — and probing by halving its density
  /// exponent (escalating toward p = 1/2 while the silence persists).
  int nocd_dry_sweep_limit = 2;

  // --- ENERGY_BEB (slow-feedback-loop backoff, DESIGN.md §6k) ---------------

  /// Fraction of the remaining laxity ENERGY_BEB's first spread covers:
  /// attempt k+1 lands uniformly in the next
  /// `energy_spread_frac · 2^k · remaining` slots (each failure doubles the
  /// spread; a draw past the deadline means the job gives up and sleeps).
  /// Larger fractions lower the per-attempt load (fewer retransmissions,
  /// less energy) at the cost of latency; values above 1 shed even first
  /// attempts — deliberate duty-cycling, the energy-extreme end of the E24
  /// Pareto knob. Valid range (0, 8].
  double energy_spread_frac = 0.5;

  /// Spend one awake slot sampling the carrier after each failed attempt
  /// (a noise sample doubles the next spread a second time, beyond the
  /// unconditional failure doubling). Off by default: the failure itself
  /// already drives the multiplicative response, so the sample buys a
  /// sharper congestion estimate at one awake slot per failure. Only
  /// effective on channels with listener-visible outcomes; under
  /// binary_ack the sample is always skipped because listeners are deaf
  /// by construction.
  bool energy_listen_after_failure = false;

  // --- derived quantities ---------------------------------------------------

  /// T_ℓ = λℓ²: total steps of the size-estimation protocol for class ℓ.
  [[nodiscard]] std::int64_t estimation_steps(int level) const noexcept;

  /// λℓ: steps per estimation phase for class ℓ.
  [[nodiscard]] std::int64_t estimation_phase_len(int level) const noexcept;

  /// Active steps of the broadcast stage for class ℓ with estimate n:
  /// decay phases λn + λn/2 + … + λ·2 (present when n >= 2) followed by ℓ
  /// equal phases of λℓ (present when n >= 1). Estimate 0 (believed-empty
  /// class) uses zero broadcast steps.
  [[nodiscard]] std::int64_t broadcast_steps(int level,
                                             std::int64_t estimate) const;

  /// Total active steps for class ℓ with estimate n. For n >= 2 this equals
  /// Lemma 6's 2λ(ℓ² + n − 1).
  [[nodiscard]] std::int64_t total_steps(int level,
                                         std::int64_t estimate) const;

  /// Pullback transmission probability for window size w (capped).
  [[nodiscard]] double pullback_tx_prob(Slot window) const noexcept;

  /// Pullback stage length in election slots for window size w (capped by
  /// the window fraction).
  [[nodiscard]] std::int64_t pullback_elections(Slot window) const noexcept;

  /// Anarchist transmission probability for window size w (capped).
  [[nodiscard]] double anarchist_tx_prob(Slot window) const noexcept;

  /// Deadline-aware blind-fallback probability: the anarchist formula with
  /// the window replaced by the slots the job actually has left, so a
  /// near-deadline job ramps up instead of silently starving on a no-CD
  /// channel. Equals anarchist_tx_prob(window) at full laxity
  /// (remaining >= window), rises monotonically as `remaining` shrinks,
  /// and is capped at max_tx_prob.
  [[nodiscard]] double degraded_floor_tx_prob(Slot window,
                                              Slot remaining) const noexcept;

  /// Throws std::invalid_argument when any field is out of range.
  void validate() const;

  friend bool operator==(const Params&, const Params&) = default;
};

/// NOCD's aging floor: keeps every live job at expected Θ(λ) floor
/// transmissions over its remaining laxity (λ / remaining, capped at
/// `max_tx_prob`), so the robust variant never stalls however wrong its
/// contention estimate is driven by jamming. Inline, and taking the two
/// fields rather than a Params, because NOCD evaluates it in every endgame
/// slot from its own copies of them.
[[nodiscard]] inline double nocd_floor_tx_prob(int lambda, double max_tx_prob,
                                               Slot remaining) noexcept {
  return std::min(static_cast<double>(lambda) /
                      static_cast<double>(std::max<Slot>(1, remaining)),
                  max_tx_prob);
}

}  // namespace crmd::core
