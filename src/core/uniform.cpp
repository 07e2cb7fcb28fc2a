#include "core/uniform.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace crmd::core {

UniformProtocol::UniformProtocol(const Params& params, util::Rng rng)
    : params_(params), rng_(rng) {}

void UniformProtocol::on_activate(const sim::JobInfo& info) {
  info_ = info;
  const Slot w = info.window();
  const auto want = std::min<Slot>(params_.uniform_attempts, w);
  // Sample `want` distinct offsets by rejection (want is tiny).
  attempts_.clear();
  while (static_cast<Slot>(attempts_.size()) < want) {
    const Slot pick = rng_.slot_in(0, w);
    if (std::find(attempts_.begin(), attempts_.end(), pick) ==
        attempts_.end()) {
      attempts_.push_back(pick);
    }
  }
  std::sort(attempts_.begin(), attempts_.end());
  CRMD_TRACE(obs_, obs::EventKind::kSchedule, info.release, info_.id,
             static_cast<std::int64_t>(attempts_.size()), w,
             static_cast<double>(attempts_.size()) / static_cast<double>(w));
}

sim::SlotAction UniformProtocol::on_slot(const sim::SlotView& view) {
  sim::SlotAction action;
  // Contention accounting: a uniformly random choice of `attempts` slots
  // puts probability attempts/window on each slot a priori.
  action.declared_prob = static_cast<double>(attempts_.size()) /
                         static_cast<double>(info_.window());
  transmitted_this_slot_ = false;
  if (next_attempt_ < attempts_.size() &&
      attempts_[next_attempt_] == view.since_release) {
    ++next_attempt_;
    action.transmit = true;
    action.message = sim::make_data(info_.id);
    transmitted_this_slot_ = true;
  }
  // Honest sleep declaration (DESIGN.md §6k): the schedule is pre-drawn and
  // on_feedback only acts on slots this job transmitted in, so between
  // attempts the radio can stay off.
  action.sleep = !action.transmit;
  return action;
}

void UniformProtocol::on_feedback(const sim::SlotView& /*view*/,
                                  const sim::SlotFeedback& fb) {
  if (transmitted_this_slot_ && fb.outcome == sim::SlotOutcome::kSuccess) {
    succeeded_ = true;
  }
}

bool UniformProtocol::done() const {
  return succeeded_ || next_attempt_ >= attempts_.size();
}

sim::DormantSpan UniformProtocol::dormant_span(
    const sim::SlotView& view) const {
  if (succeeded_ || next_attempt_ >= attempts_.size()) {
    return {};  // done; the engine retires the job on the next real slot
  }
  const Slot next = attempts_[next_attempt_];
  if (next <= view.since_release) {
    return {};  // the attempt is now — simulate it
  }
  return {next - view.since_release,
          static_cast<double>(attempts_.size()) /
              static_cast<double>(info_.window())};
}

sim::ProtocolFactory make_uniform_factory(Params params) {
  params.validate();
  return sim::make_arena_factory<UniformProtocol>(params);
}

}  // namespace crmd::core
