#include "baselines/aloha.hpp"

#include <algorithm>

#include "sim/engine.hpp"

namespace crmd::baselines {

AlohaProtocol::AlohaProtocol(double p, util::Rng rng) : p_(p), rng_(rng) {}

AlohaProtocol::AlohaProtocol(PerWindow rate, util::Rng rng)
    : window_scale_(rate.scale), rng_(rng) {}

void AlohaProtocol::on_activate(const sim::JobInfo& info) {
  info_ = info;
  if (window_scale_ != 0.0) {
    p_ = std::min(0.5, window_scale_ / static_cast<double>(info.window()));
  }
}

sim::SlotAction AlohaProtocol::on_slot(const sim::SlotView& /*view*/) {
  sim::SlotAction action;
  transmitted_ = false;
  action.declared_prob = p_;
  if (rng_.bernoulli(p_)) {
    action.transmit = true;
    action.message = sim::make_data(info_.id);
    transmitted_ = true;
  }
  // Honest sleep declaration (DESIGN.md §6k): ALOHA only reads feedback on
  // slots it transmitted in, so it can keep the radio off otherwise.
  action.sleep = !action.transmit;
  return action;
}

void AlohaProtocol::on_feedback(const sim::SlotView& /*view*/,
                                const sim::SlotFeedback& fb) {
  if (transmitted_ && fb.outcome == sim::SlotOutcome::kSuccess) {
    succeeded_ = true;
  }
}

bool AlohaProtocol::done() const { return succeeded_; }

sim::ProtocolFactory make_aloha_factory(double p) {
  return sim::make_arena_factory<AlohaProtocol>(p);
}

sim::ProtocolFactory make_aloha_window_factory(double scale) {
  return sim::make_arena_factory<AlohaProtocol>(
      AlohaProtocol::PerWindow{scale});
}

}  // namespace crmd::baselines
