#include "core/aligned/protocol.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"

namespace crmd::core::aligned {

const char* to_string(AlignedProtocol::Stage stage) noexcept {
  switch (stage) {
    case AlignedProtocol::Stage::kRunning:
      return "running";
    case AlignedProtocol::Stage::kSucceeded:
      return "succeeded";
    case AlignedProtocol::Stage::kGaveUp:
      return "gave-up";
  }
  return "unknown";
}

AlignedProtocol::AlignedProtocol(const Params& params, util::Rng rng)
    : rng_(rng), params_(params) {}

void AlignedProtocol::set_stage(Stage next, Slot global_slot) {
  CRMD_TRACE(obs_, obs::EventKind::kStage, global_slot, info_.id,
             static_cast<std::int64_t>(stage_),
             static_cast<std::int64_t>(next), 0.0, to_string(next));
  stage_ = next;
}

void AlignedProtocol::on_activate(const sim::JobInfo& info) {
  const Slot w = info.window();
  if (!util::is_pow2(w) || info.release % w != 0) {
    throw std::invalid_argument(
        "AlignedProtocol requires power-of-2-aligned windows");
  }
  info_ = info;
  level_ = util::floor_log2(w);
  degraded_ = !info.caps.collision_detection;
  if (degraded_) {
    // Degraded mode (DESIGN.md §6f): the pecking-order schedule is driven
    // entirely by busy-vs-silent observations — estimation thresholds and
    // subphase verdicts both read collision cues. When the channel
    // advertises that those cues do not exist, the Tracker would
    // synchronize on garbage, so skip it and transmit blind with the
    // conservative anarchist probability for this window instead.
    return;
  }
  // Without the pecking order (ablation) a job tracks only its own class
  // and acts whenever that class is incomplete — nested classes collide.
  const int min_class =
      params_.pecking_order ? std::min(params_.min_class, level_) : level_;
  tracker_ = info.run != nullptr ? &shared_tracker(*info.run, min_class)
                                 : &own_tracker_.emplace(min_class, level_);
}

namespace {

/// One replica of the run's shared state: the jobs with this class-range
/// start and these Params all step it.
struct SharedTracker {
  Params params;
  Tracker tracker;
};

}  // namespace

Tracker& AlignedProtocol::shared_tracker(sim::RunState& run, int min_class) {
  // A deque never moves its elements, so bound jobs keep their pointers.
  auto& replicas = run.get<std::deque<SharedTracker>>();
  for (SharedTracker& r : replicas) {
    if (r.tracker.min_class() == min_class && r.params == params_) {
      if (r.tracker.own_class() < level_) {
        // This job activates at its window start, a boundary of every class
        // up to its own, where each replica's first step resets them all
        // (Lemma 7). So a fresh replica of the wider range, replacing the
        // old in place before anyone steps this slot, is exact for the jobs
        // already bound to it.
        r.tracker = Tracker(min_class, level_);
      }
      return r.tracker;
    }
  }
  replicas.push_back({params_, Tracker(min_class, level_)});
  return replicas.back().tracker;
}

sim::SlotAction AlignedProtocol::degraded_slot(const sim::SlotView& view) {
  sim::SlotAction action;
  if (stage_ != Stage::kRunning) {
    return action;  // defensive; the simulator retires done jobs
  }
  // Deadline-aware blind schedule: the anarchist formula over the slots
  // actually left, so a near-deadline job ramps up instead of silently
  // starving (equals anarchist_tx_prob at full laxity).
  const double p = params_.degraded_floor_tx_prob(
      info_.window(), info_.window() - view.since_release);
  action.declared_prob = p;
  if (rng_.bernoulli(p)) {
    action.transmit = true;
    action.message = sim::make_data(info_.id);
    transmitted_ = true;
    transmitted_data_ = true;
  }
  return action;
}

void AlignedProtocol::trace_step(Slot global_slot, int active) {
  if (active != traced_active_class_) {
    CRMD_TRACE(obs_, obs::EventKind::kClassActive, global_slot, info_.id,
               traced_active_class_, active);
    traced_active_class_ = active;
  }
  if (!estimate_traced_ && tracker_->view(level_).estimate >= 0) {
    CRMD_TRACE(obs_, obs::EventKind::kEstimate, global_slot, info_.id,
               level_, tracker_->view(level_).estimate);
    estimate_traced_ = true;
  }
}

sim::SlotAction AlignedProtocol::own_class_step(Slot global_slot) {
  sim::SlotAction action;
  const Tracker::ClassView cls = tracker_->view(level_);
  if (cls.estimating) {
    const double p = cls.estimation->tx_probability();
    action.declared_prob = p;
    if (rng_.bernoulli(p)) {
      action.transmit = true;
      action.message = sim::make_control(info_.id);
      transmitted_ = true;
      transmitted_data_ = false;
    }
    return action;
  }

  // Broadcast stage: one random slot per subphase.
  const BroadcastSchedule::Position pos =
      cls.broadcast->position(cls.broadcast_step);
  if (pos.subphase_id != current_subphase_) {
    current_subphase_ = pos.subphase_id;
    chosen_offset_ =
        static_cast<std::int64_t>(rng_.below(
            static_cast<std::uint64_t>(pos.subphase_len)));
  }
  if (pos.subphase_id != traced_subphase_) {
    traced_subphase_ = pos.subphase_id;
    CRMD_TRACE(obs_, obs::EventKind::kSubphase, global_slot, info_.id,
               pos.subphase_id, pos.subphase_len);
  }
  action.declared_prob = 1.0 / static_cast<double>(pos.subphase_len);
  if (pos.offset == chosen_offset_) {
    action.transmit = true;
    action.message = sim::make_data(info_.id);
    transmitted_ = true;
    transmitted_data_ = true;
  }
  return action;
}

AlignedProtocol::LastStep AlignedProtocol::last_step() const noexcept {
  LastStep step;
  if (tracker_ == nullptr) {
    return step;
  }
  step.valid = true;
  step.active_class = own_view(tracker_->active_class());
  step.estimating = step.active_class >= 0 && tracker_->active_estimating();
  return step;
}

int AlignedProtocol::active_class() const noexcept {
  return tracker_ != nullptr ? own_view(tracker_->active_class()) : -1;
}

std::int64_t AlignedProtocol::own_estimate() const {
  return tracker_ != nullptr ? tracker_->view(level_).estimate : -1;
}

sim::ProtocolFactory make_aligned_factory(Params params) {
  params.validate();
  return sim::make_arena_factory<AlignedProtocol>(params);
}

}  // namespace crmd::core::aligned
