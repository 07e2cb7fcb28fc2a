#include "baselines/energy_beb.hpp"

#include <algorithm>
#include <cmath>

#include "sim/engine.hpp"

namespace crmd::baselines {

EnergyBebProtocol::EnergyBebProtocol(const core::Params& params,
                                     util::Rng rng)
    : params_(params), rng_(rng) {}

void EnergyBebProtocol::on_activate(const sim::JobInfo& info) {
  info_ = info;
  // Under binary_ack listeners are deaf by the model itself, so a carrier
  // sample would burn an awake slot to hear guaranteed silence.
  carrier_sense_ =
      params_.energy_listen_after_failure && info.caps.listener_success_visible;
  schedule_spread(0);
}

void EnergyBebProtocol::schedule_spread(Slot from) {
  spread_begin_ = from;
  const Slot remaining = info_.window() - from;
  if (remaining <= 0) {
    // Laxity spent: the deadline is the next slot. Sleep out the rest; the
    // simulator expires the job.
    spread_end_ = from;
    prob_ = 0.0;
    attempt_slot_ = -1;
    return;
  }
  // Spread = frac · 2^boost · remaining, at least one slot wide. Computed in
  // doubles so a deep boost cannot overflow Slot arithmetic — the draw below
  // only materialises offsets that land inside the remaining laxity.
  const double spread =
      std::max(1.0, std::ldexp(params_.energy_spread_frac,
                               std::min(boost_, 50)) *
                        static_cast<double>(remaining));
  prob_ = 1.0 / spread;
  const double offset = rng_.next_double() * spread;
  if (offset >= static_cast<double>(remaining)) {
    // The draw overran the deadline: give up and sleep out the window. The
    // spread's in-window portion still declares its ex-ante probability.
    spread_end_ = info_.window();
    attempt_slot_ = -1;
    return;
  }
  spread_end_ = std::min<Slot>(
      from + static_cast<Slot>(std::ceil(spread)), info_.window());
  attempt_slot_ = from + static_cast<Slot>(offset);
}

sim::SlotAction EnergyBebProtocol::on_slot(const sim::SlotView& view) {
  sim::SlotAction action;
  transmitted_ = false;
  listening_ = false;
  const Slot t = view.since_release;
  if (t >= spread_begin_ && t < spread_end_) {
    action.declared_prob = prob_;
  }
  if (t == listen_slot_) {
    // One-slot carrier sample after a failure: stay awake to hear whether
    // the channel is congested before drawing the next spread.
    listening_ = true;
  } else if (t == attempt_slot_) {
    action.transmit = true;
    action.message = sim::make_data(info_.id);
    transmitted_ = true;
  }
  // Honest sleep declaration (DESIGN.md §6k): the radio is on only for the
  // job's own attempts and armed carrier samples.
  action.sleep = !action.transmit && !listening_;
  return action;
}

void EnergyBebProtocol::on_feedback(const sim::SlotView& view,
                                    const sim::SlotFeedback& fb) {
  const Slot t = view.since_release;
  if (transmitted_) {
    if (fb.outcome == sim::SlotOutcome::kSuccess) {
      succeeded_ = true;
      return;
    }
    // Collision (or jam). The failure itself is the congestion sample: the
    // next spread doubles unconditionally — the slow feedback loop needs no
    // extra listening for its multiplicative response.
    ++failures_;
    boost_ = std::min(boost_ + 1, 50);
    if (carrier_sense_) {
      listen_slot_ = t + 1;
      spread_begin_ = spread_end_ = t + 1;  // no declared probability until
      prob_ = 0.0;                          // rescheduled after the sample
      attempt_slot_ = -1;
    } else {
      schedule_spread(t + 1);
    }
    return;
  }
  if (listening_) {
    listen_slot_ = -1;
    if (fb.outcome == sim::SlotOutcome::kNoise) {
      // The channel is still congested: widen the next spread a second
      // time beyond the unconditional failure doubling.
      boost_ = std::min(boost_ + 1, 50);
    }
    schedule_spread(t + 1);
    return;
  }
  // Sleeping: feedback was scrubbed to silence and the state is untouched —
  // the promise the dormant span makes to the fast-forward engine.
}

bool EnergyBebProtocol::done() const { return succeeded_; }

sim::DormantSpan EnergyBebProtocol::dormant_span(
    const sim::SlotView& view) const {
  const Slot t = view.since_release;
  if (succeeded_ || t == listen_slot_) {
    return {};  // done, or awake for a carrier sample — simulate it
  }
  if (attempt_slot_ < 0) {
    // Given up (or laxity spent): asleep until the simulator expires the
    // job at its deadline. The declared probability stays 1/spread through
    // the in-window tail of the overrunning spread, then drops to zero.
    if (t < spread_end_) {
      return {spread_end_ - t, prob_};
    }
    return {info_.window() - t, 0.0};
  }
  if (t >= attempt_slot_) {
    return {};  // the attempt is now — simulate it
  }
  // Every slot in [t, attempt_slot_) lies inside the current spread, so
  // on_slot would declare the constant 1/spread and sleep.
  return {attempt_slot_ - t, prob_};
}

sim::ProtocolFactory make_energy_beb_factory(core::Params params) {
  params.validate();
  return sim::make_arena_factory<EnergyBebProtocol>(params);
}

}  // namespace crmd::baselines
