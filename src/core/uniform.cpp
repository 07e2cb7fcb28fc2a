#include "core/uniform.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace crmd::core {

// A dense batch touches one object per job per attempt; two cache lines
// hold all of it.
static_assert(sizeof(UniformProtocol) <= 128);

UniformProtocol::UniformProtocol(const Params& params, util::Rng rng)
    : rng_(rng), want_(static_cast<std::uint8_t>(params.uniform_attempts)) {
  assert(params.uniform_attempts >= 1 &&
         params.uniform_attempts <= Params::kMaxUniformAttempts);
}

void UniformProtocol::on_activate(const sim::JobInfo& info) {
  id_ = info.id;
  const Slot w = info.window();
  count_ = static_cast<std::uint8_t>(std::min<Slot>(want_, w));
  // Sample `count_` distinct offsets by rejection (count_ is tiny).
  const auto first = attempts_.begin();
  auto last = first;
  while (last != first + count_) {
    const Slot pick = rng_.slot_in(0, w);
    if (std::find(first, last, pick) == last) {
      *last++ = pick;
    }
  }
  std::sort(first, last);
  prob_ = static_cast<double>(count_) / static_cast<double>(w);
  CRMD_TRACE(obs_, obs::EventKind::kSchedule, info.release, id_,
             static_cast<std::int64_t>(count_), w, prob_);
}

sim::SlotAction UniformProtocol::on_slot(const sim::SlotView& view) {
  sim::SlotAction action;
  // Contention accounting: a uniformly random choice of `attempts` slots
  // puts probability attempts/window on each slot a priori.
  action.declared_prob = prob_;
  transmitted_this_slot_ = false;
  if (next_attempt_ < count_ &&
      attempts_[next_attempt_] == view.since_release) {
    ++next_attempt_;
    action.transmit = true;
    action.message = sim::make_data(id_);
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
  return succeeded_ || next_attempt_ >= count_;
}

sim::DormantSpan UniformProtocol::dormant_span(
    const sim::SlotView& view) const {
  if (succeeded_ || next_attempt_ >= count_) {
    return {};  // done; the engine retires the job on the next real slot
  }
  const Slot next = attempts_[next_attempt_];
  if (next <= view.since_release) {
    return {};  // the attempt is now — simulate it
  }
  return {next - view.since_release, prob_};
}

sim::ProtocolFactory make_uniform_factory(Params params) {
  params.validate();
  return sim::make_arena_factory<UniformProtocol>(params);
}

}  // namespace crmd::core
