#include "core/nocd/protocol.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/math.hpp"

namespace crmd::core::nocd {

NocdProtocol::NocdProtocol(const Params& params, bool robust, util::Rng rng)
    : params_(params), robust_(robust), rng_(rng) {}

void NocdProtocol::on_activate(const sim::JobInfo& info) {
  info_ = info;
  ack_mode_ = !info.caps.listener_success_visible;
  k_max_ = std::max(1, util::ceil_log2(std::max<Slot>(1, info.window())));
  // Conservative start: believed contention ~w (one job per slot of the
  // window could be waiting). At saturation (n = w/2) this is within a
  // factor 2 of the truth; at low contention the dry-epoch sweep walks the
  // exponent down in O(log w) epochs.
  k_init_ = k_max_;
  k_ = k_init_;
  base_p_ = std::min(std::exp2(-k_), params_.max_tx_prob);
  // Stagger the epoch phase per job (one activation-time draw, identical
  // across feedback models). Without it every job shares the same epoch
  // boundaries AND the same perceived successes, so the whole population
  // holds one k in lockstep — and a reactive jammer that erases a handful
  // of successes stampedes everyone into the same dry sweep at once. With
  // staggered phases jobs reach different verdicts from the same channel
  // and spread over neighboring exponents, so some density is always
  // probing near the truth.
  epoch_slot_ = static_cast<std::int64_t>(
      rng_.below(static_cast<std::uint64_t>(params_.nocd_epoch_len)));
}

double NocdProtocol::tx_prob(Slot remaining) const noexcept {
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
    const Slot sweep_len =
        params_.nocd_epoch_len * static_cast<Slot>(k_max_ + 1);
    if (remaining <= sweep_len) {
      const double floor = std::min(params_.nocd_floor_tx_prob(remaining),
                                    kFloorRatioCap * base);
      p = std::max(p, floor);
    }
  }
  return p;
}

sim::SlotAction NocdProtocol::on_slot(const sim::SlotView& view) {
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

void NocdProtocol::set_exponent(int next, Slot global_slot) {
  if (next == k_) {
    return;
  }
  CRMD_TRACE(obs_, obs::EventKind::kEstimate, global_slot, info_.id, k_,
             next);
  k_ = next;
  base_p_ = std::min(std::exp2(-k_), params_.max_tx_prob);
}

void NocdProtocol::end_epoch(Slot global_slot) {
  if (epoch_successes_ > 0) {
    // Productive epoch: the channel is draining. Credit the drained jobs
    // and halve the believed contention once half of it got through.
    drained_ += epoch_successes_;
    if (k_ > 0 && drained_ >= util::pow2(k_ - 1)) {
      drained_ = 0;
      set_exponent(k_ - 1, global_slot);
    }
    dry_streak_ = 0;
    dry_sweeps_ = 0;
  } else {
    // Dry epoch: nothing perceivable got through. Without collision
    // detection this is ambiguous — too-aggressive (collisions read as
    // silence/noise) or too-timid (genuine silence) — so the safe move is
    // to back off, monotonically and capped. Backing ON here instead
    // (raising the probability on dryness) looks symmetric but is
    // catastrophic under jamming: every erased success sends the whole
    // population toward p = 1/2 and the channel collapses into a noise
    // storm that outlives the jammer's budget.
    ++dry_streak_;
    set_exponent(std::min(k_ + 1, k_max_), global_slot);
    if (dry_streak_ > k_max_) {
      // A fully dry ladder: a whole backoff's worth of epochs without one
      // perceived success anywhere. The plain variant stays conservative
      // forever; the robust one counts ladders and escalates.
      dry_streak_ = 0;
      if (robust_) {
        ++dry_sweeps_;
        if (dry_sweeps_ >= params_.nocd_dry_sweep_limit) {
          // Unexplained silence has persisted past tolerance: the channel
          // was jammed silent, or it emptied without us hearing the
          // drain. Probe by halving the exponent — escalating toward
          // p = 1/2 if the silence persists, at a bounded frequency (one
          // probe per tolerated run of ladders), so a straggler on an
          // emptied channel recovers while a jammed crowd injects only a
          // bounded trickle of extra collisions.
          dry_sweeps_ = 0;
          drained_ = 0;
          set_exponent(k_ / 2, global_slot);
        }
      }
    }
  }
  epoch_slot_ = 0;
  epoch_successes_ = 0;
}

void NocdProtocol::on_feedback(const sim::SlotView& view,
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
  if (++epoch_slot_ >= params_.nocd_epoch_len) {
    end_epoch(view.global_slot);
  }
}

bool NocdProtocol::done() const { return succeeded_; }

sim::ProtocolFactory make_nocd_factory(Params params, bool robust) {
  params.validate();
  return sim::make_arena_factory<NocdProtocol>(params, robust);
}

}  // namespace crmd::core::nocd
