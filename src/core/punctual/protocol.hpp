#pragma once

#include <memory>
#include <optional>

#include "core/aligned/tracker.hpp"
#include "core/params.hpp"
#include "core/punctual/clock.hpp"
#include "core/punctual/round.hpp"
#include "sim/protocol.hpp"
#include "workload/trim.hpp"

/// \file protocol.hpp (punctual)
/// PUNCTUAL (§4): contention resolution with deadlines for general
/// (unaligned, clockless) instances. Figure 2 of the paper is the
/// pseudocode this class implements.
///
/// Life of a job: lock onto the round grid (SYNCHRONIZE), probe the
/// timekeeper slot for a leader; follow a leader with a later deadline
/// (trim the window on the leader's clock and run ALIGNED inside the
/// aligned slots), otherwise run SLINGSHOT — pull back with a tiny claim
/// probability in the leader-election slots; on winning, BECOME-LEADER and
/// broadcast time in every timekeeper slot (sending its own data in its
/// final timekeeper slot, or in the handoff slot when deposed); on timeout,
/// either follow a half-window-compatible leader or release the slingshot
/// and transmit anarchist-style in the anarchy slots.
///
/// Documented deviations from the paper (see DESIGN.md §7): 11-slot rounds
/// (extra trailing guard preserves the two-consecutive-busy invariant);
/// pullback length capped by a window fraction so practical window sizes
/// ever finish the stage; followers that lose their leader lineage re-trim
/// and restart ALIGNED under the new frame.

namespace crmd::core::punctual {

/// Per-job PUNCTUAL protocol.
class PunctualProtocol final : public sim::Protocol {
 public:
  /// Protocol stage (exposed for tests and the experiment harnesses).
  enum class Stage {
    kSyncListen,    ///< listening for two consecutive busy slots
    kSyncAnnounce,  ///< broadcasting its own two start markers
    kProbe,         ///< one timekeeper slot of listening for a leader
    kSlingshot,     ///< pullback: low-probability leader claims
    kRecheck,       ///< post-pullback look at the timekeeper slot
    kFollowWait,    ///< follower waiting to learn the leader frame
    kFollowRun,     ///< running ALIGNED inside the aligned slots
    kLead,          ///< is the leader; heartbeats every timekeeper slot
    kLeadHandoff,   ///< deposed; sends its data in the next timekeeper slot
    kAnarchist,     ///< release stage: aggressive anarchy-slot data sends
    kDesperate,     ///< degenerate tiny window: no rounds, just transmit
    kSucceeded,     ///< data delivered
    kGaveUp,        ///< algorithm completed without success
  };

  PunctualProtocol(const Params& params, util::Rng rng);

  void on_activate(const sim::JobInfo& info) override;
  sim::SlotAction on_slot(const sim::SlotView& view) override;
  void on_feedback(const sim::SlotView& view,
                   const sim::SlotFeedback& fb) override;
  [[nodiscard]] bool done() const override;

  // --- inspection hooks -----------------------------------------------------

  [[nodiscard]] Stage stage() const noexcept { return stage_; }
  [[nodiscard]] bool is_leader() const noexcept {
    return stage_ == Stage::kLead;
  }
  /// The job's round/leader clock.
  [[nodiscard]] const RoundClock& clock() const noexcept { return clock_; }
  /// Effective window (original, or halved by the recheck rule).
  [[nodiscard]] Slot effective_window() const noexcept {
    return effective_window_;
  }
  /// The trimmed ALIGNED core (in leader rounds) when following.
  [[nodiscard]] const std::optional<workload::AlignedWindow>& core_window()
      const noexcept {
    return core_;
  }
  /// Leader-election slots observed during the pullback stage.
  [[nodiscard]] std::int64_t elections_seen() const noexcept {
    return elections_seen_;
  }
  /// True when this job ever entered the anarchist release stage.
  [[nodiscard]] bool was_anarchist() const noexcept { return was_anarchist_; }
  /// Physically impossible observations seen so far (desync evidence).
  [[nodiscard]] std::int64_t desync_evidence() const noexcept {
    return desync_evidence_;
  }
  /// True when the job abandoned the round grid after accumulating
  /// `Params::desync_tolerance` pieces of desync evidence.
  [[nodiscard]] bool desync_fallback() const noexcept {
    return desync_fallback_;
  }

 private:
  [[nodiscard]] sim::SlotAction act_synced(Slot t);
  [[nodiscard]] sim::SlotAction act_aligned_slot(Slot t);
  void handle_synced_feedback(Slot t, const sim::SlotFeedback& fb);
  void handle_sync_listen(Slot t, bool busy);
  void enter_probe(Slot t);
  void enter_slingshot(Slot t);
  void enter_follow_wait(Slot t);
  void try_build_core(Slot t);
  void restart_follow(Slot t);
  void enter_anarchist(Slot t);
  void become_leader(Slot t);
  void truncate_follow(Slot t);
  void note_desync_evidence(Slot t);
  /// Transition funnel: every stage change goes through here so the
  /// tracing session (when attached) sees one kStage event per
  /// transition. `t` is in since-release units.
  void set_stage(Stage next, Slot t);
  /// Global slot index of since-release slot `t` (tracing only —
  /// decisions never read it, preserving the clockless model).
  [[nodiscard]] Slot gslot(Slot t) const noexcept {
    return info_.release + t;
  }
  [[nodiscard]] Slot effective_deadline() const noexcept {
    return effective_window_;  // since-release units
  }
  /// Sets the effective window and the probabilities derived from it.
  void set_effective_window(Slot window);

  Params params_;
  util::Rng rng_;
  sim::JobInfo info_;
  Stage stage_ = Stage::kSyncListen;
  RoundClock clock_;
  Slot effective_window_ = 0;
  /// Params::anarchist_tx_prob / pullback_tx_prob of effective_window_,
  /// recomputed wherever the window is set (activation, the recheck trim).
  double anarchist_p_ = 0.0;
  double pullback_p_ = 0.0;

  // Last transmission bookkeeping.
  bool transmitted_ = false;
  sim::MessageKind last_tx_kind_ = sim::MessageKind::kData;

  // Sync-listen state.
  std::int64_t listen_slots_ = 0;
  bool saw_busy_ = false;
  bool prev_busy_ = false;
  int announce_remaining_ = 0;
  Slot announce_anchor_ = 0;

  // Leader knowledge.
  bool leader_alive_ = false;
  Slot leader_deadline_ = kNoSlot;  // since-release units

  // Slingshot state.
  std::int64_t pullback_total_ = 0;
  std::int64_t elections_seen_ = 0;

  // Follower state.
  std::optional<workload::AlignedWindow> core_;  // in leader rounds
  std::unique_ptr<aligned::Tracker> tracker_;
  int follow_level_ = 0;
  bool aligned_stepped_ = false;
  std::int64_t current_subphase_ = -1;
  std::int64_t chosen_offset_ = -1;

  // Leader state.
  std::int64_t lead_start_round_ = 0;  // local rounds

  bool was_anarchist_ = false;

  // Graceful degradation (see Params::desync_tolerance).
  std::int64_t desync_evidence_ = 0;
  bool desync_fallback_ = false;
  /// kDesperate because the channel has no collision detection (§6f blind
  /// fallback) — as opposed to tiny windows or desync fallback, which run
  /// under trustworthy ternary feedback. Only this flavor uses the
  /// deadline-aware floor; the others keep the flat anarchist schedule so
  /// ternary trajectories (and their pinned digests) are untouched.
  bool no_cd_blind_ = false;
};

/// Human-readable stage name.
[[nodiscard]] const char* to_string(PunctualProtocol::Stage stage) noexcept;

/// Factory adapter for the simulator. Validates `params` eagerly.
[[nodiscard]] sim::ProtocolFactory make_punctual_factory(Params params);

}  // namespace crmd::core::punctual
