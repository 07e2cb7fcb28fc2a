#pragma once

#include <optional>

#include "core/aligned/tracker.hpp"
#include "core/params.hpp"
#include "sim/protocol.hpp"

/// \file protocol.hpp (aligned)
/// ALIGNED (§3): contention resolution for power-of-2-aligned windows.
///
/// Every job tracks the pecking-order schedule (Tracker): its own replica,
/// or, in a run with a common view (sim::RunState), the one replica the
/// run's ALIGNED jobs share (DESIGN.md §6e). When its own class is the
/// active one it performs the class's next step: during the
/// estimation stage it transmits a control probe with the phase's
/// probability; during the broadcast stage it transmits its data message in
/// one uniformly random slot per subphase. When a smaller class is active
/// it stays silent and merely listens (passively simulating, per Lemma 7).
/// If its class's algorithm completes without the job having transmitted
/// successfully — or the window ends first (truncation) — the job gives up.
///
/// Model note: ALIGNED is the one protocol allowed to read the global slot
/// index, standing in for the synchronization the paper derives from
/// aligned window boundaries.

namespace crmd::core::aligned {

/// Per-job ALIGNED protocol. Requires the job's window to be a power of
/// two, aligned at a multiple of its size (throws std::invalid_argument on
/// activation otherwise).
class AlignedProtocol final : public sim::Protocol {
 public:
  AlignedProtocol(const Params& params, util::Rng rng);

  void on_activate(const sim::JobInfo& info) override;
  sim::SlotAction on_slot(const sim::SlotView& view) override;
  void on_feedback(const sim::SlotView& view,
                   const sim::SlotFeedback& fb) override;
  [[nodiscard]] bool done() const override;

  // --- inspection hooks (tests and experiment harnesses) -------------------

  /// Lifecycle stage of this job.
  enum class Stage { kRunning, kSucceeded, kGaveUp };
  [[nodiscard]] Stage stage() const noexcept { return stage_; }

  /// True when the channel advertised no collision detection
  /// (JobInfo::caps) and the job fell back to the blind schedule
  /// (DESIGN.md §6f). The Tracker is never constructed in this mode;
  /// tracker() must not be called.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

  /// This job's class ℓ (log2 of its window size).
  [[nodiscard]] int level() const noexcept { return level_; }

  /// The class this job believes is active (valid after its last on_slot;
  /// -1 when all of classes [min_class, level()] completed).
  [[nodiscard]] int active_class() const noexcept;

  /// This job's class estimate n_ℓ; -1 while still estimating.
  [[nodiscard]] std::int64_t own_estimate() const;

  /// The replica this job steps, for invariant tests: its own, or the
  /// run's shared one, whose classes may reach above level().
  [[nodiscard]] const Tracker& tracker() const { return *tracker_; }

  /// What the most recent on_slot observed: the active class and whether
  /// that class was in its estimation stage. Read from the replica, which
  /// keeps its state at the start of the slot it was last begun in: the
  /// slot of this job's last on_slot, since every live job that shares a
  /// replica steps it in every slot. Valid once the job activated, unless
  /// degraded; used by the schedule-rendering harness (E1).
  struct LastStep {
    int active_class = -1;
    bool valid = false;
    bool estimating = false;
  };
  [[nodiscard]] LastStep last_step() const noexcept;

 private:
  /// Transition funnel: every stage change goes through here so the
  /// tracing session (when attached) sees one kStage event per transition.
  void set_stage(Stage next, Slot global_slot);
  /// on_slot of a degraded job: the blind, deadline-aware schedule.
  [[nodiscard]] sim::SlotAction degraded_slot(const sim::SlotView& view);
  /// on_slot's step when this job's own class is active: an estimation
  /// probe, or its data message in the broadcast stage.
  [[nodiscard]] sim::SlotAction own_class_step(Slot global_slot);
  /// Emits the class-active and estimate events this slot's tracker step
  /// calls for (tracing only); `active` is the active class it saw.
  void trace_step(Slot global_slot, int active);
  /// The replica of classes [min_class, level_] in the run's shared state:
  /// the one for min_class and params_, grown to level_ when it tracks
  /// fewer classes.
  [[nodiscard]] Tracker& shared_tracker(sim::RunState& run, int min_class);
  /// The tracker's active class as this job sees it: a class above its
  /// own, which only a shared replica tracks, is none of its business.
  [[nodiscard]] int own_view(int active) const noexcept {
    return active > level_ ? -1 : active;
  }

  // What every slot reads comes first (DESIGN.md §6e). `tracker_` points
  // at the replica this job steps: own_tracker_, or the run's shared one
  // (null in degraded mode).
  Tracker* tracker_ = nullptr;
  Stage stage_ = Stage::kRunning;
  int level_ = 0;
  bool degraded_ = false;
  bool transmitted_ = false;
  bool transmitted_data_ = false;
  util::Rng rng_;
  std::int64_t current_subphase_ = -1;
  std::int64_t chosen_offset_ = -1;
  sim::JobInfo info_;
  Params params_;
  /// This job's own replica, when the run shares none.
  std::optional<Tracker> own_tracker_;

  // Tracing-only bookkeeping (never read by decision logic).
  std::int64_t traced_subphase_ = -1;
  int traced_active_class_ = -2;  ///< -2 = nothing emitted yet
  bool estimate_traced_ = false;
};

// The per-slot calls are defined here so the engine's typed pipeline
// (make_arena_factory, DESIGN.md §6e) inlines them. What most job-slots
// skip stays out of line: the degraded schedule, the own class's step,
// tracing and stage changes.

inline sim::SlotAction AlignedProtocol::on_slot(const sim::SlotView& view) {
  transmitted_ = false;
  if (degraded_) {
    return degraded_slot(view);
  }
  tracker_->begin_slot(view.global_slot, params_);
  const int active = own_view(tracker_->active_class());
  if (obs_ != nullptr) {
    trace_step(view.global_slot, active);
  }
  if (stage_ != Stage::kRunning || active != level_) {
    // Done (defensive; the simulator retires done jobs), or a smaller
    // class owns this slot: listen silently.
    return {};
  }
  return own_class_step(view.global_slot);
}

inline void AlignedProtocol::on_feedback(const sim::SlotView& view,
                                         const sim::SlotFeedback& fb) {
  // A successful *data* transmission completes the job (a lone success is
  // necessarily the transmitter's own); control-probe successes merely feed
  // the estimation counts below.
  if (transmitted_ && transmitted_data_ &&
      fb.outcome == sim::SlotOutcome::kSuccess) {
    set_stage(Stage::kSucceeded, view.global_slot);
  }
  if (degraded_) {
    // Blind mode keeps trying until the window ends: with no collision
    // cues there is no schedule-completion signal to key truncation on,
    // and giving up early would only forfeit remaining slots.
    return;
  }
  tracker_->end_slot(fb.outcome, params_);
  if (stage_ == Stage::kRunning && tracker_->complete(level_)) {
    // §3 Truncation: the class's algorithm ended and this job did not get
    // through — it gives up and yields to the larger classes.
    set_stage(Stage::kGaveUp, view.global_slot);
  }
}

inline bool AlignedProtocol::done() const { return stage_ != Stage::kRunning; }

/// Human-readable stage name.
[[nodiscard]] const char* to_string(AlignedProtocol::Stage stage) noexcept;

/// Factory adapter for the simulator. Validates `params` eagerly.
[[nodiscard]] sim::ProtocolFactory make_aligned_factory(Params params);

}  // namespace crmd::core::aligned
