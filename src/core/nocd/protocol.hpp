#pragma once

#include <algorithm>
#include <cstdint>

#include "core/params.hpp"
#include "sim/protocol.hpp"

/// \file protocol.hpp (nocd)
/// NOCD / NOCD-ROBUST: contention resolution without collision detection.
///
/// The source paper's ALIGNED and PUNCTUAL key their schedules on ternary
/// feedback; when `ChannelCaps::collision_detection` is off they fall back
/// to a blind anarchist schedule and pay the ~100x degradation E19
/// measured. This family closes that gap along the lines of Jiang–Zheng,
/// "Robust and Optimal Contention Resolution without Collision Detection"
/// (arXiv:2111.06650): batched exponential-backoff-style epochs whose only
/// inference signal is *perceived successes* — the one cue every model in
/// the degradation ladder still delivers.
///
/// Success-only inference is the robustness contract (DESIGN.md §6g):
/// decisions branch solely on "did I perceive a success", never on
/// noise-vs-silence, so the protocol's trajectory on `collision_as_silence`
/// is bit-identical to its ternary trajectory by construction — noisy and
/// silent slots may swap labels freely without changing a single decision
/// or RNG draw. The lone capability-gated extra cue is the explicit own-
/// failure ACK of `binary_ack` (`!caps.listener_success_visible`), where
/// listeners hear nothing and an immediate per-collision backoff is the
/// only timely signal available.
///
/// State machine: each job keeps a density exponent k and transmits its
/// data message with probability min(2^-k, max_tx_prob) per slot. Slots
/// are grouped into epochs of `Params::nocd_epoch_len`, phase-staggered
/// per job so the population never moves in lockstep:
///   - a *productive* epoch (>= 1 perceived success) counts the drained
///     jobs; once 2^(k-1) have drained since the last change the believed
///     contention has halved and k decrements;
///   - a *dry* epoch (zero perceived successes) backs off — k increments,
///     capped at k_max = ceil(log2 w). Dryness without collision detection
///     is ambiguous (collisions and silence read alike), and backing *on*
///     would let a jammer stampede the whole population into a
///     self-sustaining noise storm, so conservative is the only safe
///     direction.
/// The robust variant adds the jamming tolerance: (a) after
/// `Params::nocd_dry_sweep_limit` *fully dry ladders* (a whole backoff's
/// worth of epochs, k_max+1, with zero successes anywhere) it concludes
/// the silence is unexplained — adversarial jamming, or a channel that
/// emptied unheard — and probes by halving k, escalating toward p = 1/2 at
/// a bounded frequency; and (b) a deadline-aware aging floor — once less
/// than one ladder of laxity remains, the transmission probability never
/// falls below `nocd_floor_tx_prob` (λ/remaining, ratio-capped against the
/// estimate), so a straggler ramps up toward its deadline instead of
/// silently starving (never stalls).
///
/// A job is done only when its own data transmission is perceived
/// successful; it never gives up before its deadline.

namespace crmd::core::nocd {

/// Per-job NOCD protocol; `robust` selects the jamming-tolerant variant.
class NocdProtocol final : public sim::Protocol {
 public:
  NocdProtocol(const Params& params, bool robust, util::Rng rng);

  void on_activate(const sim::JobInfo& info) override;
  sim::SlotAction on_slot(const sim::SlotView& view) override;
  void on_feedback(const sim::SlotView& view,
                   const sim::SlotFeedback& fb) override;
  [[nodiscard]] bool done() const override;

  // --- inspection hooks (tests and experiment harnesses) -------------------

  /// Current density exponent k (transmission probability 2^-k, floored).
  [[nodiscard]] int density_exponent() const noexcept { return k_; }

  /// Largest exponent the sweep visits (ceil(log2 w)).
  [[nodiscard]] int max_exponent() const noexcept { return k_max_; }

  /// Perceived successes accumulated toward the next k decrement.
  [[nodiscard]] std::int64_t drained() const noexcept { return drained_; }

  /// Completed fully-dry ladders since the last success or probe (robust
  /// variant only; always 0 otherwise).
  [[nodiscard]] int dry_sweeps() const noexcept { return dry_sweeps_; }

  /// True for the jamming-tolerant variant.
  [[nodiscard]] bool robust() const noexcept { return robust_; }

  /// The probability the next on_slot will transmit with, given `remaining`
  /// slots of laxity (exposed so tests can pin the floor ramp exactly).
  [[nodiscard]] double tx_prob(Slot remaining) const noexcept;

 private:
  void end_epoch(Slot global_slot);
  void set_exponent(int next, Slot global_slot);

  // The four Params fields NOCD reads (DESIGN.md §6g), not a copy of all.
  double max_tx_prob_;
  std::int64_t epoch_len_;
  int lambda_;
  int dry_sweep_limit_;
  util::Rng rng_;
  sim::JobInfo info_;
  /// min(2^-k_, max_tx_prob), recomputed wherever k_ changes.
  double base_p_ = 0.0;
  /// One full density sweep, epoch_len * (k_max_ + 1) slots: the laxity
  /// below which the robust floor applies.
  Slot sweep_len_ = 0;
  std::int64_t epoch_slot_ = 0;
  std::int64_t epoch_successes_ = 0;
  std::int64_t drained_ = 0;
  int k_ = 0;
  int k_max_ = 0;
  /// Consecutive dry epochs; k_max_ + 1 of them = one fully dry ladder.
  int dry_streak_ = 0;
  int dry_sweeps_ = 0;
  bool robust_ = false;
  /// Own-failure ACKs available (binary_ack): listeners hear nothing, so
  /// per-collision backoff replaces listener-driven drain accounting.
  bool ack_mode_ = false;
  bool transmitted_data_ = false;
  bool succeeded_ = false;
};

// The per-slot calls are defined here so the engine's typed pipeline
// (make_arena_factory, DESIGN.md §6e) inlines them; the state changes they
// trigger (set_exponent, end_epoch) stay out of line.

inline double NocdProtocol::tx_prob(Slot remaining) const noexcept {
  const double base = base_p_;
  double p = base;
  // Deadline-aware floor: bounded-ratio retry with aging, endgame only.
  // While at least one full density sweep of laxity remains, the wrapping
  // dry-epoch sweep already guarantees liveness (every exponent —
  // including the aggressive ones — is revisited within (k_max+1) epochs),
  // and a blanket λ/remaining floor this early would drown a saturated
  // channel in collisions. Once the sweep can no longer complete before
  // the deadline the floor takes over — but ratio-bounded: it may boost a
  // job at most kFloorRatioCap above its estimate-driven probability, so a
  // lone straggler ramps up toward its deadline while a jammed-blind crowd
  // (everyone still believing contention is high, because it is) cannot
  // stampede the endgame into wall-to-wall collisions.
  if (robust_) {
    // Cap on floor/base: λ² with the default λ=2 — large enough that an
    // aging straggler quadruples its attempt rate, small enough that
    // aggregate endgame contention stays within a constant factor of the
    // swept estimate.
    constexpr double kFloorRatioCap = 4.0;
    if (remaining <= sweep_len_) {
      const double aging =
          nocd_floor_tx_prob(lambda_, max_tx_prob_, remaining);
      p = std::max(p, std::min(aging, kFloorRatioCap * base));
    }
  }
  return p;
}

inline sim::SlotAction NocdProtocol::on_slot(const sim::SlotView& view) {
  sim::SlotAction action;
  transmitted_data_ = false;
  if (succeeded_) {
    return action;  // defensive; the simulator retires done jobs
  }
  const Slot remaining = info_.window() - view.since_release;
  const double p = tx_prob(remaining);
  action.declared_prob = p;
  // Exactly one RNG draw per slot regardless of feedback model or variant,
  // so trajectories across models diverge only through decisions, never
  // through stream desynchronization.
  if (rng_.bernoulli(p)) {
    action.transmit = true;
    action.message = sim::make_data(info_.id);
    transmitted_data_ = true;
  }
  // Honest sleep declaration (DESIGN.md §6k): under binary_ack listeners
  // hear nothing by construction, so the epoch-clock tick in on_feedback is
  // content-independent and the radio can stay off on non-transmit slots.
  // Every other model feeds the success-only inference through listener
  // feedback, so the job must stay awake to hear the drain.
  action.sleep = ack_mode_ && !action.transmit;
  return action;
}

inline void NocdProtocol::on_feedback(const sim::SlotView& view,
                                      const sim::SlotFeedback& fb) {
  const bool success = fb.outcome == sim::SlotOutcome::kSuccess;
  // A lone success while we transmitted data is necessarily our own (the
  // channel never fabricates successes, even under noisy degradation).
  if (transmitted_data_ && success) {
    succeeded_ = true;
    return;
  }
  if (ack_mode_ && transmitted_data_) {
    // binary_ack: the transmitter's feedback is the true outcome, so a
    // non-success here is an explicit own-collision cue. Back off one step
    // immediately — with listeners deaf, waiting out the epoch would learn
    // nothing more. The collision also proves the channel has live
    // contenders, so adversarial-silence evidence resets.
    set_exponent(std::min(k_ + 1, k_max_), view.global_slot);
    dry_streak_ = 0;
    dry_sweeps_ = 0;
    epoch_slot_ = 0;
    epoch_successes_ = 0;
    return;
  }
  if (success) {
    ++epoch_successes_;
  }
  if (++epoch_slot_ >= epoch_len_) {
    end_epoch(view.global_slot);
  }
}

inline bool NocdProtocol::done() const { return succeeded_; }

/// Factory adapter for the simulator. Validates `params` eagerly.
[[nodiscard]] sim::ProtocolFactory make_nocd_factory(Params params,
                                                     bool robust);

}  // namespace crmd::core::nocd
