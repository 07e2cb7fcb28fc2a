#include "core/nocd/protocol.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"

namespace crmd::core::nocd {

static_assert(sizeof(NocdProtocol) <= 192);

NocdProtocol::NocdProtocol(const Params& params, bool robust, util::Rng rng)
    : max_tx_prob_(params.max_tx_prob),
      epoch_len_(params.nocd_epoch_len),
      lambda_(params.lambda),
      dry_sweep_limit_(params.nocd_dry_sweep_limit),
      rng_(rng),
      robust_(robust) {}

void NocdProtocol::on_activate(const sim::JobInfo& info) {
  info_ = info;
  ack_mode_ = !info.caps.listener_success_visible;
  k_max_ = std::max(1, util::ceil_log2(std::max<Slot>(1, info.window())));
  sweep_len_ = epoch_len_ * static_cast<Slot>(k_max_ + 1);
  // Conservative start: believed contention ~w (one job per slot of the
  // window could be waiting). At saturation (n = w/2) this is within a
  // factor 2 of the truth; at low contention the dry-epoch sweep walks the
  // exponent down in O(log w) epochs.
  k_ = k_max_;
  base_p_ = std::min(std::exp2(-k_), max_tx_prob_);
  // Stagger the epoch phase per job (one activation-time draw, identical
  // across feedback models). Without it every job shares the same epoch
  // boundaries AND the same perceived successes, so the whole population
  // holds one k in lockstep — and a reactive jammer that erases a handful
  // of successes stampedes everyone into the same dry sweep at once. With
  // staggered phases jobs reach different verdicts from the same channel
  // and spread over neighboring exponents, so some density is always
  // probing near the truth.
  epoch_slot_ = static_cast<std::int64_t>(
      rng_.below(static_cast<std::uint64_t>(epoch_len_)));
}

void NocdProtocol::set_exponent(int next, Slot global_slot) {
  if (next == k_) {
    return;
  }
  CRMD_TRACE(obs_, obs::EventKind::kEstimate, global_slot, info_.id, k_,
             next);
  k_ = next;
  base_p_ = std::min(std::exp2(-k_), max_tx_prob_);
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
        if (dry_sweeps_ >= dry_sweep_limit_) {
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

sim::ProtocolFactory make_nocd_factory(Params params, bool robust) {
  params.validate();
  return sim::make_arena_factory<NocdProtocol>(params, robust);
}

}  // namespace crmd::core::nocd
