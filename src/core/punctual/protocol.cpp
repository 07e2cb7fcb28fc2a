#include "core/punctual/protocol.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"
#include "util/math.hpp"

namespace crmd::core::punctual {

PunctualProtocol::PunctualProtocol(const Params& params, util::Rng rng)
    : params_(params), rng_(rng) {}

void PunctualProtocol::on_activate(const sim::JobInfo& info) {
  info_ = info;
  set_effective_window(info.window());
  if (!info.caps.collision_detection) {
    // Degraded mode (DESIGN.md §6f): the round grid is built on
    // busy-vs-silent detection — two consecutive busy slots mark a round
    // start, and "busy" includes deliberate start-marker collisions.
    // Without collision cues those markers read as silence, frames
    // fragment, and the timekeeper machinery synchronizes on garbage; the
    // channel advertised the weakness, so fall back to the clock-free
    // conservative blind schedule for the whole window instead of chasing
    // a grid that cannot exist.
    set_stage(Stage::kDesperate, 0);
    was_anarchist_ = true;
    no_cd_blind_ = true;
  } else if (effective_window_ < params_.punctual_min_window) {
    // Degenerate windows cannot afford the round machinery; just transmit.
    set_stage(Stage::kDesperate, 0);
    was_anarchist_ = true;
  } else {
    set_stage(Stage::kSyncListen, 0);
  }
}

void PunctualProtocol::set_effective_window(Slot window) {
  effective_window_ = window;
  anarchist_p_ = params_.anarchist_tx_prob(window);
  pullback_p_ = params_.pullback_tx_prob(window);
}

void PunctualProtocol::set_stage(Stage next, Slot t) {
  CRMD_TRACE(obs_, obs::EventKind::kStage, gslot(t), info_.id,
             static_cast<std::int64_t>(stage_),
             static_cast<std::int64_t>(next), 0.0, to_string(next));
  stage_ = next;
}

sim::SlotAction PunctualProtocol::on_slot(const sim::SlotView& view) {
  const Slot t = view.since_release;
  sim::SlotAction action;
  transmitted_ = false;
  aligned_stepped_ = false;

  switch (stage_) {
    case Stage::kDesperate: {
      // The no-CD blind fallback scales by remaining laxity so jobs ramp
      // up toward their deadline; the tiny-window and desync flavors keep
      // the flat schedule (their ternary trajectories are digest-pinned).
      double p = anarchist_p_;
      if (no_cd_blind_) {
        p = params_.degraded_floor_tx_prob(effective_window_,
                                           effective_window_ - t);
      }
      action.declared_prob = p;
      if (rng_.bernoulli(p)) {
        action.transmit = true;
        action.message = sim::make_data(info_.id);
        transmitted_ = true;
        last_tx_kind_ = sim::MessageKind::kData;
      }
      return action;
    }
    case Stage::kSyncListen:
      return action;  // pure listening
    case Stage::kSyncAnnounce:
      action.transmit = true;
      action.message = sim::make_start(info_.id);
      action.declared_prob = 1.0;
      transmitted_ = true;
      last_tx_kind_ = sim::MessageKind::kStart;
      return action;
    case Stage::kSucceeded:
    case Stage::kGaveUp:
      return action;  // defensive; the simulator retires done jobs
    default:
      return act_synced(t);
  }
}

sim::SlotAction PunctualProtocol::act_synced(Slot t) {
  sim::SlotAction action;
  const SlotType type = clock_.type(t);

  switch (type) {
    case SlotType::kSync:
      // Every synced job re-broadcasts the round marker (§4); the resulting
      // collision is the point.
      action.transmit = true;
      action.message = sim::make_start(info_.id);
      action.declared_prob = 1.0;
      transmitted_ = true;
      last_tx_kind_ = sim::MessageKind::kStart;
      return action;

    case SlotType::kGuard:
      return action;

    case SlotType::kTimekeeper: {
      if (stage_ == Stage::kLead &&
          clock_.local_round(t) >= lead_start_round_) {
        const std::int64_t time = clock_.leader_round(t);
        const std::int64_t deadline_in = effective_deadline() - t;
        // Last timekeeper slot inside the window: send the data message
        // (piggybacking the clock) and abdicate.
        const bool last = t + kRoundLength >= effective_deadline();
        if (last) {
          action.message = sim::make_data(info_.id);
          action.message.time = time;
          action.message.deadline_in = deadline_in;
          action.message.abdicating = true;
          last_tx_kind_ = sim::MessageKind::kData;
        } else {
          action.message =
              sim::make_timekeeper(info_.id, time, deadline_in, false);
          last_tx_kind_ = sim::MessageKind::kTimekeeper;
        }
        action.transmit = true;
        action.declared_prob = 1.0;
        transmitted_ = true;
      } else if (stage_ == Stage::kLeadHandoff) {
        // Deposed: one handoff slot for the old leader's data (§4,
        // BECOME-LEADER), then the new leader owns the timekeeper slots.
        action.message = sim::make_data(info_.id);
        action.message.time = clock_.leader_round(t);
        action.message.deadline_in = effective_deadline() - t;
        action.transmit = true;
        action.declared_prob = 1.0;
        transmitted_ = true;
        last_tx_kind_ = sim::MessageKind::kData;
      }
      return action;
    }

    case SlotType::kAligned:
      if (stage_ == Stage::kFollowRun) {
        return act_aligned_slot(t);
      }
      return action;

    case SlotType::kLeaderElection:
      if (stage_ == Stage::kSlingshot) {
        const double p = pullback_p_;
        action.declared_prob = p;
        if (rng_.bernoulli(p)) {
          action.transmit = true;
          action.message =
              sim::make_leader_claim(info_.id, effective_deadline() - t);
          transmitted_ = true;
          last_tx_kind_ = sim::MessageKind::kLeaderClaim;
        }
      }
      return action;

    case SlotType::kAnarchy:
      if (stage_ == Stage::kAnarchist) {
        const double p = anarchist_p_;
        action.declared_prob = p;
        if (rng_.bernoulli(p)) {
          action.transmit = true;
          action.message = sim::make_data(info_.id);
          transmitted_ = true;
          last_tx_kind_ = sim::MessageKind::kData;
        }
      }
      return action;
  }
  return action;
}

sim::SlotAction PunctualProtocol::act_aligned_slot(Slot t) {
  sim::SlotAction action;
  if (!core_.has_value()) {
    return action;
  }
  const std::int64_t g = clock_.leader_round(t);
  if (g < core_->start) {
    return action;  // own class window has not begun yet
  }
  if (g >= core_->end()) {
    truncate_follow(t);
    return action;
  }
  tracker_->begin_slot(g);
  aligned_stepped_ = true;
  if (tracker_->active_class() != follow_level_) {
    return action;  // a smaller class owns this aligned slot
  }

  const aligned::Tracker::ClassView cls = tracker_->view(follow_level_);
  if (cls.estimating) {
    const double p = cls.estimation->tx_probability();
    action.declared_prob = p;
    if (rng_.bernoulli(p)) {
      action.transmit = true;
      action.message = sim::make_control(info_.id);
      transmitted_ = true;
      last_tx_kind_ = sim::MessageKind::kControl;
    }
    return action;
  }
  const aligned::BroadcastSchedule::Position pos =
      cls.broadcast->position(cls.broadcast_step);
  if (pos.subphase_id != current_subphase_) {
    current_subphase_ = pos.subphase_id;
    chosen_offset_ = static_cast<std::int64_t>(
        rng_.below(static_cast<std::uint64_t>(pos.subphase_len)));
  }
  action.declared_prob = 1.0 / static_cast<double>(pos.subphase_len);
  if (pos.offset == chosen_offset_) {
    action.transmit = true;
    action.message = sim::make_data(info_.id);
    transmitted_ = true;
    last_tx_kind_ = sim::MessageKind::kData;
  }
  return action;
}

void PunctualProtocol::on_feedback(const sim::SlotView& view,
                                   const sim::SlotFeedback& fb) {
  const Slot t = view.since_release;
  const bool busy = fb.outcome != sim::SlotOutcome::kSilence;

  // A transmitter that hears a success knows the success was its own (two
  // transmissions would have collided).
  if (transmitted_ && fb.outcome == sim::SlotOutcome::kSuccess) {
    switch (last_tx_kind_) {
      case sim::MessageKind::kData:
        set_stage(Stage::kSucceeded, t);
        return;
      case sim::MessageKind::kLeaderClaim:
        become_leader(t);
        return;
      default:
        break;  // start/control successes carry no private meaning
    }
  }

  // Desync evidence: we transmitted, yet heard silence. On a correct
  // channel our own transmission makes the slot at least busy, so this
  // observation proves the feedback path is unreliable (lost or corrupted
  // feedback — never happens fault-free).
  if (transmitted_ && fb.outcome == sim::SlotOutcome::kSilence &&
      stage_ != Stage::kDesperate) {
    note_desync_evidence(t);
    if (desync_fallback_ && stage_ == Stage::kDesperate) {
      return;
    }
  }

  switch (stage_) {
    case Stage::kDesperate:
    case Stage::kSucceeded:
    case Stage::kGaveUp:
      return;
    case Stage::kSyncListen:
      handle_sync_listen(t, busy);
      return;
    case Stage::kSyncAnnounce:
      if (--announce_remaining_ == 0) {
        clock_.sync(announce_anchor_);
        CRMD_TRACE(obs_, obs::EventKind::kRoundSync, gslot(t), info_.id,
                   announce_anchor_);
        enter_probe(t);
      }
      return;
    default:
      handle_synced_feedback(t, fb);
      return;
  }
}

void PunctualProtocol::handle_sync_listen(Slot t, bool busy) {
  ++listen_slots_;
  if (busy && prev_busy_) {
    // Two consecutive busy slots mark a round start (slots t-1 and t are
    // the sync pair).
    clock_.sync(t - 1);
    CRMD_TRACE(obs_, obs::EventKind::kRoundSync, gslot(t), info_.id, t - 1);
    enter_probe(t);
    return;
  }
  if (busy) {
    saw_busy_ = true;
  }
  prev_busy_ = busy;
  // Silence for a whole round plus one slot means nobody is out there: we
  // found the system idle and may announce a fresh frame.
  if (!saw_busy_ && listen_slots_ >= kRoundLength + 1) {
    set_stage(Stage::kSyncAnnounce, t);
    announce_remaining_ = 2;
    announce_anchor_ = t + 1;
    return;
  }
  // Safety valve: busy slots were seen but the start pair never arrived
  // (possible only under pathological interference). Announce anyway.
  if (saw_busy_ && listen_slots_ >= 4 * kRoundLength) {
    set_stage(Stage::kSyncAnnounce, t);
    announce_remaining_ = 2;
    announce_anchor_ = t + 1;
  }
}

void PunctualProtocol::handle_synced_feedback(Slot t,
                                              const sim::SlotFeedback& fb) {
  const SlotType type = clock_.type(t);

  // Desync evidence: a busy slot where we believe the frame keeps a guard.
  // Under a correct, shared round grid guard slots stay silent, so noise
  // here means our grid disagrees with the jobs actually transmitting
  // (clock skew), or our feedback is corrupted. (Rare benign cause in
  // fault-free mixed workloads: desperate tiny-window jobs transmit in
  // every slot type — why the fallback is gated on desync_tolerance > 0.)
  if (type == SlotType::kGuard && fb.outcome != sim::SlotOutcome::kSilence) {
    note_desync_evidence(t);
    if (desync_fallback_) {
      return;
    }
  }

  // ---- central leadership bookkeeping (all synced stages) ----------------
  if (type == SlotType::kTimekeeper) {
    if (fb.outcome == sim::SlotOutcome::kSuccess) {
      const sim::Message& m = *fb.message;
      if (m.kind == sim::MessageKind::kTimekeeper ||
          m.kind == sim::MessageKind::kData) {
        if (clock_.frame_known() && !clock_.frame_matches(m.time, t)) {
          // A fresh leader lineage with a different clock: rebase, and
          // restart any follower run under the new frame (deviation noted
          // in the class comment).
          clock_.set_frame(m.time, t);
          if (stage_ == Stage::kFollowRun || stage_ == Stage::kFollowWait) {
            restart_follow(t);
          }
        } else {
          clock_.set_frame(m.time, t);
        }
        if (m.kind == sim::MessageKind::kTimekeeper && !m.abdicating) {
          leader_alive_ = true;
          leader_deadline_ = t + m.deadline_in;
        } else if (m.abdicating) {
          leader_alive_ = false;  // seat empties after this message
        }
        // A non-abdicating data message here is the deposition handoff: the
        // new leader (already recorded from its claim) takes over next.
      }
    } else if (fb.outcome == sim::SlotOutcome::kSilence) {
      leader_alive_ = false;  // a live leader always transmits here
    }
  }
  if (type == SlotType::kLeaderElection &&
      fb.outcome == sim::SlotOutcome::kSuccess &&
      fb.message->kind == sim::MessageKind::kLeaderClaim) {
    // Someone else's claim succeeded (our own success was handled in
    // on_feedback): they become the leader.
    leader_alive_ = true;
    leader_deadline_ = t + fb.message->deadline_in;
  }

  // ---- stage transitions ---------------------------------------------------
  switch (stage_) {
    case Stage::kProbe:
      if (type == SlotType::kTimekeeper) {
        if (leader_alive_ && leader_deadline_ >= effective_deadline()) {
          enter_follow_wait(t);
        } else {
          enter_slingshot(t);
        }
      }
      return;

    case Stage::kSlingshot: {
      if (leader_alive_ && leader_deadline_ >= effective_deadline()) {
        // "If a leader emerges with a deadline after that of j, then job j
        // can move directly to the aligned slots."
        enter_follow_wait(t);
        return;
      }
      if (type == SlotType::kLeaderElection) {
        ++elections_seen_;
        if (elections_seen_ >= pullback_total_) {
          set_stage(Stage::kRecheck, t);
        }
      }
      return;
    }

    case Stage::kRecheck:
      if (leader_alive_ && leader_deadline_ >= effective_deadline()) {
        enter_follow_wait(t);
        return;
      }
      if (type == SlotType::kTimekeeper) {
        const Slot half = info_.window() / 2;
        if (leader_alive_ && leader_deadline_ >= half && t < half) {
          // "Rounds its deadline down to d_j/2 and runs FOLLOW-THE-LEADER."
          set_effective_window(half);
          CRMD_TRACE(obs_, obs::EventKind::kWindowTrim, gslot(t), info_.id,
                     half);
          enter_follow_wait(t);
        } else {
          enter_anarchist(t);
        }
      }
      return;

    case Stage::kFollowWait:
      try_build_core(t);
      return;

    case Stage::kFollowRun:
      if (type == SlotType::kAligned && aligned_stepped_) {
        tracker_->end_slot(fb.outcome);
        if (tracker_->view(follow_level_).complete) {
          truncate_follow(t);
        }
      }
      return;

    case Stage::kLead:
      if (type == SlotType::kLeaderElection &&
          fb.outcome == sim::SlotOutcome::kSuccess &&
          fb.message->kind == sim::MessageKind::kLeaderClaim) {
        // Deposed: the claimant necessarily has a later deadline. We get
        // the next timekeeper slot for our data, then step aside.
        set_stage(Stage::kLeadHandoff, t);
        return;
      }
      if (type == SlotType::kTimekeeper && transmitted_ &&
          last_tx_kind_ == sim::MessageKind::kData &&
          fb.outcome != sim::SlotOutcome::kSuccess) {
        // Our abdication data message was jammed away; the window is over.
        set_stage(Stage::kGaveUp, t);
      }
      return;

    case Stage::kLeadHandoff:
      if (type == SlotType::kTimekeeper && transmitted_ &&
          fb.outcome != sim::SlotOutcome::kSuccess) {
        set_stage(Stage::kGaveUp, t);  // handoff slot lost (jamming)
      }
      return;

    default:
      return;
  }
}

void PunctualProtocol::enter_probe(Slot t) { set_stage(Stage::kProbe, t); }

void PunctualProtocol::enter_slingshot(Slot t) {
  pullback_total_ = params_.pullback_elections(effective_window_);
  elections_seen_ = 0;
  set_stage(Stage::kSlingshot, t);
}

void PunctualProtocol::enter_follow_wait(Slot t) {
  set_stage(Stage::kFollowWait, t);
  try_build_core(t);
}

void PunctualProtocol::try_build_core(Slot t) {
  if (!clock_.frame_known()) {
    return;  // keep waiting for a heartbeat
  }
  const std::int64_t g_now = clock_.leader_round(t);
  assert(g_now >= 0);
  const std::int64_t rounds_left =
      (effective_deadline() - t) / kRoundLength - 1;
  const std::int64_t g_start = g_now + 2;
  const std::int64_t g_dead = g_now + rounds_left;
  if (g_dead - g_start < 2) {
    enter_anarchist(t);
    return;
  }
  const workload::AlignedWindow core = workload::trimmed(g_start, g_dead);
  if (core.level < 1) {
    enter_anarchist(t);
    return;
  }
  core_ = core;
  follow_level_ = core.level;
  const int min_class = std::min(params_.min_class, follow_level_);
  tracker_ =
      std::make_unique<aligned::Tracker>(params_, min_class, follow_level_);
  current_subphase_ = -1;
  chosen_offset_ = -1;
  set_stage(Stage::kFollowRun, t);
}

void PunctualProtocol::restart_follow(Slot t) {
  core_.reset();
  tracker_.reset();
  set_stage(Stage::kFollowWait, t);
  try_build_core(t);
}

void PunctualProtocol::enter_anarchist(Slot t) {
  set_stage(Stage::kAnarchist, t);
  was_anarchist_ = true;
}

void PunctualProtocol::note_desync_evidence(Slot t) {
  ++desync_evidence_;
  CRMD_TRACE(obs_, obs::EventKind::kDesyncEvidence, gslot(t), info_.id,
             desync_evidence_);
  if (params_.desync_tolerance > 0 && !desync_fallback_ &&
      desync_evidence_ >= params_.desync_tolerance) {
    // The round grid (or the feedback it is built from) can no longer be
    // trusted. Fall back to the clock-free desperate path — the only stage
    // that makes no use of the grid — rather than kAnarchist, whose anarchy
    // slots are themselves located via the (untrusted) grid.
    desync_fallback_ = true;
    set_stage(Stage::kDesperate, t);
    was_anarchist_ = true;
  }
}

void PunctualProtocol::become_leader(Slot t) {
  if (!clock_.frame_known()) {
    // Fresh lineage: our local round counter becomes the global time.
    clock_.set_frame(clock_.local_round(t), t);
  }
  lead_start_round_ = clock_.local_round(t) + (leader_alive_ ? 2 : 1);
  leader_alive_ = true;
  leader_deadline_ = effective_deadline();
  CRMD_TRACE(obs_, obs::EventKind::kBecomeLeader, gslot(t), info_.id,
             lead_start_round_);
  set_stage(Stage::kLead, t);
}

void PunctualProtocol::truncate_follow(Slot t) {
  if (stage_ != Stage::kFollowRun) {
    return;
  }
  if (params_.anarchist_fallback_on_truncation) {
    enter_anarchist(t);
  } else {
    // §3 Truncation semantics: the class's algorithm is over; give up.
    set_stage(Stage::kGaveUp, t);
  }
}

bool PunctualProtocol::done() const {
  return stage_ == Stage::kSucceeded || stage_ == Stage::kGaveUp;
}

const char* to_string(PunctualProtocol::Stage stage) noexcept {
  using Stage = PunctualProtocol::Stage;
  switch (stage) {
    case Stage::kSyncListen:
      return "sync-listen";
    case Stage::kSyncAnnounce:
      return "sync-announce";
    case Stage::kProbe:
      return "probe";
    case Stage::kSlingshot:
      return "slingshot";
    case Stage::kRecheck:
      return "recheck";
    case Stage::kFollowWait:
      return "follow-wait";
    case Stage::kFollowRun:
      return "follow-run";
    case Stage::kLead:
      return "lead";
    case Stage::kLeadHandoff:
      return "lead-handoff";
    case Stage::kAnarchist:
      return "anarchist";
    case Stage::kDesperate:
      return "desperate";
    case Stage::kSucceeded:
      return "succeeded";
    case Stage::kGaveUp:
      return "gave-up";
  }
  return "unknown";
}

sim::ProtocolFactory make_punctual_factory(Params params) {
  params.validate();
  return sim::make_arena_factory<PunctualProtocol>(params);
}

}  // namespace crmd::core::punctual
