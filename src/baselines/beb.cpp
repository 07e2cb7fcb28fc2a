#include "baselines/beb.hpp"

#include <algorithm>

#include "sim/engine.hpp"

namespace crmd::baselines {

BebProtocol::BebProtocol(const BebConfig& config, util::Rng rng)
    : config_(config), rng_(rng) {}

void BebProtocol::on_activate(const sim::JobInfo& info) {
  info_ = info;
  schedule_attempt(0);
}

void BebProtocol::schedule_attempt(Slot from) {
  window_len_ = config_.cw_min << std::min(failures_, 40);
  if (config_.cw_max > 0) {
    window_len_ = std::min(window_len_, config_.cw_max);
  }
  window_begin_ = from;
  attempt_slot_ = from + rng_.slot_in(0, window_len_);
}

sim::SlotAction BebProtocol::on_slot(const sim::SlotView& view) {
  sim::SlotAction action;
  transmitted_ = false;
  const Slot t = view.since_release;
  if (t >= window_begin_ && t < window_begin_ + window_len_) {
    action.declared_prob = 1.0 / static_cast<double>(window_len_);
  }
  if (t == attempt_slot_) {
    action.transmit = true;
    action.message = sim::make_data(info_.id);
    transmitted_ = true;
  }
  // Honest sleep declaration (DESIGN.md §6k): on_feedback ignores every
  // slot this job did not transmit in, so it only wakes for its attempts.
  action.sleep = !action.transmit;
  return action;
}

void BebProtocol::on_feedback(const sim::SlotView& view,
                              const sim::SlotFeedback& fb) {
  if (!transmitted_) {
    return;
  }
  if (fb.outcome == sim::SlotOutcome::kSuccess) {
    succeeded_ = true;
    return;
  }
  // Collision (or jam): double the window and retry after this slot.
  ++failures_;
  schedule_attempt(view.since_release + 1);
}

bool BebProtocol::done() const { return succeeded_; }

sim::DormantSpan BebProtocol::dormant_span(const sim::SlotView& view) const {
  const Slot t = view.since_release;
  if (succeeded_ || t < window_begin_ || t >= attempt_slot_) {
    return {};  // done, pre-window, or the attempt is now — simulate it
  }
  // Every slot in [t, attempt_slot_) lies inside the current contention
  // window [window_begin_, window_begin_ + window_len_), so on_slot would
  // declare the constant 1/window_len_ and never transmit.
  return {attempt_slot_ - t, 1.0 / static_cast<double>(window_len_)};
}

sim::ProtocolFactory make_beb_factory(BebConfig config) {
  return sim::make_arena_factory<BebProtocol>(config);
}

}  // namespace crmd::baselines
