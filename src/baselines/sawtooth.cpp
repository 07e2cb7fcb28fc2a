#include "baselines/sawtooth.hpp"

#include <cmath>

#include "sim/engine.hpp"
#include "util/math.hpp"

namespace crmd::baselines {

SawtoothProtocol::SawtoothProtocol(util::Rng rng) : rng_(rng) {}

void SawtoothProtocol::on_activate(const sim::JobInfo& info) {
  info_ = info;
  epoch_ = 1;
  phase_ = 1;
  phase_remaining_ = util::pow2(phase_);
}

void SawtoothProtocol::advance() {
  if (--phase_remaining_ > 0) {
    return;
  }
  if (phase_ > 1) {
    --phase_;  // next tooth: smaller window, higher probability
  } else {
    ++epoch_;  // epoch done: restart the sweep one size larger
    phase_ = epoch_;
  }
  phase_remaining_ = util::pow2(std::min(phase_, 40));
}

sim::SlotAction SawtoothProtocol::on_slot(const sim::SlotView& /*view*/) {
  sim::SlotAction action;
  transmitted_ = false;
  const double p = std::ldexp(1.0, -phase_);  // 2^-phase
  action.declared_prob = p;
  if (rng_.bernoulli(p)) {
    action.transmit = true;
    action.message = sim::make_data(info_.id);
    transmitted_ = true;
  }
  // Honest sleep declaration (DESIGN.md §6k): on non-transmit slots
  // on_feedback always advance()s regardless of the feedback content — a
  // pure timer tick the simulator still delivers to sleepers.
  action.sleep = !action.transmit;
  return action;
}

void SawtoothProtocol::on_feedback(const sim::SlotView& /*view*/,
                                   const sim::SlotFeedback& fb) {
  if (transmitted_ && fb.outcome == sim::SlotOutcome::kSuccess) {
    succeeded_ = true;
    return;
  }
  advance();
}

bool SawtoothProtocol::done() const { return succeeded_; }

sim::ProtocolFactory make_sawtooth_factory() {
  return sim::make_arena_factory<SawtoothProtocol>();
}

}  // namespace crmd::baselines
