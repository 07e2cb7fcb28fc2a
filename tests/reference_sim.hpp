#pragma once

// A deliberately naive reference engine for the differential test in
// test_reference_sim.cpp. It walks the slot order documented in
// src/sim/simulator.hpp one step at a time and keeps none of the engine's
// machinery: jobs are an array of structs owning heap-built protocols (no
// arena), every live job is ticked every slot (no parking, no fast-forward),
// nothing is compacted, and an idle gap is walked slot by slot. The live
// list is a plain swap-remove vector. Its order fixes the contention fold
// order and the capture-winner index, so it is part of the contract the
// engine must match.
//
// Only leaf pieces of the engine are reused: resolve_slot,
// degrade_feedback, FaultInjector, Jammer, shard_of, SimMetrics::record,
// StreamSummary::add and the named child seeds of the per-run RNG streams.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/channel.hpp"
#include "sim/faults.hpp"
#include "sim/jammer.hpp"
#include "sim/metrics.hpp"
#include "sim/multichannel.hpp"
#include "sim/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/instance.hpp"

namespace crmd::tests {

class ReferenceSim {
 public:
  /// With `streaming` the run has run_stream semantics over a
  /// VectorArrivals replay of the same (normalized) jobs: jobs released at
  /// or past the horizon never enter, retired and horizon-cut jobs are
  /// folded into SimResult::stream, and SimResult::jobs holds only the jobs
  /// that entered. Otherwise it has the batch ctor's semantics.
  ReferenceSim(workload::Instance instance, sim::ProtocolFactory factory,
               sim::SimConfig config, std::unique_ptr<sim::Jammer> jammer,
               bool streaming)
      : config_(std::move(config)),
        factory_(std::move(factory)),
        jammer_(std::move(jammer)),
        streaming_(streaming) {
    config_.validate();
    instance.normalize();
    const util::Rng seed(config_.seed);
    master_ = seed;
    jam_rng_ = seed.child(0x4A414D4D4552ULL);  // "JAMMER"
    fb_rng_ = seed.child(0x4642464C4950ULL);   // "FBFLIP"
    cap_rng_ = seed.child(0x43415054ULL);      // "CAPT"
    if (config_.faults.any()) {
      injector_.emplace(config_.faults, config_.seed);
      injector_->set_record_events(config_.record_slots);
    }
    horizon_ = config_.horizon > 0 ? config_.horizon : instance.max_deadline();
    const int k = config_.multichannel.channels;
    for (const workload::JobSpec& spec : instance.jobs) {
      if (streaming_ && spec.release >= horizon_) {
        break;  // the stream ends at the first release past the horizon
      }
      Job job;
      job.result.id = static_cast<JobId>(jobs_.size());
      job.result.release = spec.release;
      job.result.deadline = spec.deadline;
      job.channel = sim::shard_of(config_.seed, job.result.id, k);
      jobs_.push_back(std::move(job));
    }
    freeze_.assign(static_cast<std::size_t>(k), 0);
    now_ = jobs_.empty() ? 0 : jobs_.front().result.release;
  }

  sim::SimResult run() {
    while (step()) {
    }
    sim::SimResult out;
    if (streaming_) {
      for (Job& job : jobs_) {
        if (job.live) {
          job.live = false;
          job.proto.reset();
          fold(job.result);
        }
      }
      std::sort(folded_.begin(), folded_.end(),
                [](const sim::JobResult& a, const sim::JobResult& b) {
                  return a.id < b.id;
                });
      out.jobs = std::move(folded_);
      out.stream = stream_;
    } else {
      for (const Job& job : jobs_) {
        out.jobs.push_back(job.result);
      }
    }
    out.metrics = metrics_;
    if (injector_) {
      out.metrics.faults_injected = injector_->total_injected();
      out.metrics.feedback_corruptions =
          injector_->count(sim::FaultKind::kFeedbackCorrupt);
      out.metrics.feedback_losses =
          injector_->count(sim::FaultKind::kFeedbackLoss);
      out.metrics.clock_skew_events =
          injector_->count(sim::FaultKind::kClockSkew);
      out.metrics.crashes = injector_->count(sim::FaultKind::kCrash);
      out.metrics.restarts = injector_->count(sim::FaultKind::kRestart);
      out.fault_events = injector_->take_events();
    }
    out.slots = std::move(records_);
    return out;
  }

 private:
  struct Job {
    sim::JobResult result;  // counters are bumped here directly
    std::unique_ptr<sim::Protocol> proto;
    int channel = 0;
    std::uint32_t collisions = 0;
    bool live = false;
    bool dark = false;    // this slot
    bool asleep = false;  // this slot
    bool sent = false;    // this slot
  };

  /// One sub-channel's outcome in the current slot.
  struct Chan {
    std::vector<sim::Transmission> tx;
    double contention = 0.0;
    std::uint32_t live = 0;
    sim::SlotFeedback truth;
    sim::SlotFeedback listener;
    sim::SlotFeedback transmitter;
    bool split = false;
    bool jammed = false;
    JobId capture_winner = kNoJob;
  };

  void fold(const sim::JobResult& r) {
    stream_.add(r);
    folded_.push_back(r);
  }

  void retire(JobId id) {
    Job& job = jobs_[id];
    job.live = false;
    job.proto.reset();
    const auto it = std::find(live_.begin(), live_.end(), id);
    *it = live_.back();
    live_.pop_back();
    if (streaming_) {
      fold(job.result);
    }
  }

  sim::SlotView view_of(JobId id) const {
    const Slot skew = injector_ ? injector_->skew(id) : 0;
    return sim::SlotView{now_ - jobs_[id].result.release + skew, now_ + skew};
  }

  bool step() {
    if (finished_) {
      return false;
    }
    if (live_.empty()) {
      if (next_ >= jobs_.size()) {
        finished_ = true;
        return false;
      }
      // An idle gap: nobody is live, so its slots are skipped and any
      // armed freeze runs out unobserved.
      while (now_ < jobs_[next_].result.release) {
        ++metrics_.slots_skipped;
        for (Slot& f : freeze_) {
          f = std::max<Slot>(0, f - 1);
        }
        ++now_;
      }
    }
    if (now_ >= horizon_) {
      finished_ = true;
      return false;
    }

    // Activation, in release order.
    for (; next_ < jobs_.size() && jobs_[next_].result.release <= now_;
         ++next_) {
      Job& job = jobs_[next_];
      const auto id = static_cast<JobId>(next_);
      if (job.result.deadline <= now_) {
        if (streaming_) {
          fold(job.result);
        }
        continue;
      }
      sim::JobInfo info;
      info.id = id;
      info.release = job.result.release;
      info.deadline = job.result.deadline;
      info.caps = config_.feedback.caps();
      job.proto = factory_(info, master_.child(id + 1));
      job.live = true;
      live_.push_back(id);
      job.proto->on_activate(info);
    }

    // Deadline retirement, in live order.
    std::vector<JobId> expired;
    for (const JobId id : live_) {
      if (jobs_[id].result.deadline <= now_) {
        expired.push_back(id);
      }
    }
    for (const JobId id : expired) {
      retire(id);
    }
    if (live_.empty()) {
      return true;
    }

    // Faults: crash/stall/skew per live job; the dead retire at once.
    const std::int64_t faults_before =
        injector_ ? injector_->total_injected() : 0;
    if (injector_) {
      std::vector<JobId> dead;
      for (const JobId id : live_) {
        const auto health = injector_->tick(id, now_);
        jobs_[id].dark = health == sim::FaultInjector::JobHealth::kDark;
        metrics_.dark_job_slots += jobs_[id].dark ? 1 : 0;
        if (health == sim::FaultInjector::JobHealth::kDead) {
          dead.push_back(id);
        }
      }
      for (const JobId id : dead) {
        retire(id);
      }
      if (live_.empty()) {
        return true;
      }
    }

    // Decisions, per job on its own channel.
    std::vector<Chan> chans(freeze_.size());
    for (const JobId id : live_) {
      Job& job = jobs_[id];
      Chan& ch = chans[static_cast<std::size_t>(job.channel)];
      ++job.result.live_slots;
      ++ch.live;
      job.sent = false;
      if (injector_ && job.dark) {
        ++job.result.dark_slots;
        continue;
      }
      const sim::SlotAction action = job.proto->on_slot(view_of(id));
      ch.contention += action.declared_prob;
      job.asleep = !action.transmit && action.sleep;
      if (action.transmit) {
        ch.tx.push_back(sim::Transmission{id, action.message});
        job.sent = true;
        ++job.result.transmissions;
        ++metrics_.slots_transmitting;
        ++metrics_.slots_awake;
      } else if (!job.asleep) {
        ++job.result.listen_slots;
        ++metrics_.slots_listening;
        ++metrics_.slots_awake;
      }
    }
    metrics_.live_job_slots += static_cast<std::int64_t>(live_.size());
    metrics_.live_peak = std::max<std::int64_t>(
        metrics_.live_peak, static_cast<std::int64_t>(live_.size()));

    // Each channel: resolve, freeze -> capture -> jammer, project feedback.
    for (std::size_t c = 0; c < chans.size(); ++c) {
      resolve(chans[c], freeze_[c]);
    }

    // Feedback, per job from its own channel; each job's done() is read
    // right after its own on_feedback (a dark job's in its place).
    std::vector<JobId> done;
    for (const JobId id : live_) {
      Job& job = jobs_[id];
      if (injector_ && job.dark) {
        if (job.proto->done()) {
          done.push_back(id);
        }
        continue;
      }
      const Chan& ch = chans[static_cast<std::size_t>(job.channel)];
      const bool as_transmitter =
          ch.split && job.sent && id != ch.capture_winner;
      sim::SlotFeedback heard = as_transmitter ? ch.transmitter : ch.listener;
      if (injector_) {
        heard = injector_->perceive(id, now_, heard);
      }
      if (job.asleep) {
        heard = sim::SlotFeedback{};  // a sleeper hears silence
      }
      job.proto->on_feedback(view_of(id), heard);
      if (job.proto->done()) {
        done.push_back(id);
      }
    }

    // Records, one per channel; the slot's faults go to channel 0.
    for (std::size_t c = 0; c < chans.size(); ++c) {
      const Chan& ch = chans[c];
      sim::SlotRecord rec;
      rec.slot = now_;
      rec.outcome = ch.truth.outcome;
      rec.success_kind =
          ch.truth.message ? ch.truth.message->kind : sim::MessageKind::kData;
      rec.contention = ch.contention;
      rec.transmitters = static_cast<std::uint32_t>(ch.tx.size());
      rec.live_jobs = ch.live;
      rec.jammed = ch.jammed;
      if (c == 0 && injector_) {
        rec.faults = static_cast<std::uint32_t>(injector_->total_injected() -
                                                faults_before);
      }
      metrics_.record(rec);
      if (config_.record_slots) {
        records_.push_back(rec);
      }
    }

    // Migration: every migrate_after-th collision rehashes the job.
    const int k = config_.multichannel.channels;
    for (const Chan& ch : chans) {
      if (ch.truth.outcome != sim::SlotOutcome::kNoise) {
        continue;
      }
      for (const sim::Transmission& t : ch.tx) {
        Job& job = jobs_[t.job];
        ++job.collisions;
        if (config_.multichannel.migrate &&
            job.collisions % static_cast<std::uint32_t>(
                                 config_.multichannel.migrate_after) ==
                0) {
          job.channel = sim::shard_of(
              config_.seed,
              (static_cast<std::uint64_t>(job.collisions) << 32) | t.job, k);
        }
      }
    }

    // Credit delivered data messages, then retire winners and done jobs.
    std::vector<JobId> leaving;
    for (const Chan& ch : chans) {
      if (ch.truth.outcome == sim::SlotOutcome::kSuccess &&
          ch.truth.message->kind == sim::MessageKind::kData) {
        const JobId winner = ch.truth.message->sender;
        jobs_[winner].result.success = true;
        jobs_[winner].result.success_slot = now_;
        leaving.push_back(winner);
      }
    }
    for (const JobId id : done) {
      if (std::find(leaving.begin(), leaving.end(), id) == leaving.end()) {
        leaving.push_back(id);
      }
    }
    for (const JobId id : leaving) {
      retire(id);
    }

    ++now_;
    if (live_.empty() && next_ >= jobs_.size()) {
      finished_ = true;
    }
    return !finished_;
  }

  // The true outcome of one channel and what listeners and transmitters
  // perceive of it.
  void resolve(Chan& ch, Slot& freeze) {
    ch.truth = sim::resolve_slot(ch.tx);
    const sim::FeedbackModel& model = config_.feedback;
    if (freeze > 0) {
      --freeze;
      ch.truth = sim::SlotFeedback{sim::SlotOutcome::kNoise, std::nullopt};
      ++metrics_.collision_cost_slots;
    } else {
      if (model.kind == sim::FeedbackKind::kCapture && model.alpha > 0.0 &&
          ch.tx.size() >= 2) {
        const double p_win =
            std::pow(model.alpha, static_cast<double>(ch.tx.size() - 1));
        if (cap_rng_.bernoulli(p_win)) {
          const sim::Transmission& t = ch.tx[cap_rng_.below(ch.tx.size())];
          ch.truth = sim::SlotFeedback{sim::SlotOutcome::kSuccess, t.message};
          ch.capture_winner = t.job;
        }
      }
      if (jammer_) {
        const sim::Message* msg = ch.truth.message ? &*ch.truth.message
                                                   : nullptr;
        if (jammer_->wants_jam(now_, ch.truth.outcome, msg) &&
            jam_rng_.bernoulli(jammer_->p_jam())) {
          ch.truth = sim::SlotFeedback{sim::SlotOutcome::kNoise, std::nullopt};
          ch.jammed = true;
          ch.capture_winner = kNoJob;
        }
      }
      if (config_.collision_cost > 1 &&
          ch.truth.outcome == sim::SlotOutcome::kNoise) {
        freeze = config_.collision_cost - 1;
      }
    }
    if (ch.capture_winner != kNoJob) {
      ++metrics_.capture_wins;
    }

    const sim::SlotFeedback silence{};
    const bool noise = ch.truth.outcome == sim::SlotOutcome::kNoise;
    ch.listener = ch.truth;
    ch.transmitter = ch.truth;
    switch (model.kind) {
      case sim::FeedbackKind::kTernary:
        if (!config_.collision_detection && noise) {
          ch.listener = silence;
          ch.split = true;
        }
        break;
      case sim::FeedbackKind::kBinaryAck:
        ch.listener = silence;
        ch.split = !ch.tx.empty();
        break;
      case sim::FeedbackKind::kCollisionAsSilence:
        if (noise) {
          ch.listener = silence;
          ch.transmitter = silence;
        }
        break;
      case sim::FeedbackKind::kNoisy:
        if (model.eps > 0.0 && fb_rng_.bernoulli(model.eps)) {
          ch.listener = sim::degrade_feedback(ch.truth);
          ch.transmitter = ch.listener;
          ++metrics_.feedback_flips;
        }
        break;
      case sim::FeedbackKind::kCapture:
        if (ch.capture_winner != kNoJob) {
          ch.transmitter =
              sim::SlotFeedback{sim::SlotOutcome::kNoise, std::nullopt};
          ch.split = true;
        }
        break;
    }
  }

  sim::SimConfig config_;
  sim::ProtocolFactory factory_;
  std::unique_ptr<sim::Jammer> jammer_;
  bool streaming_;
  util::Rng master_{0};
  util::Rng jam_rng_{0};
  util::Rng fb_rng_{0};
  util::Rng cap_rng_{0};
  std::optional<sim::FaultInjector> injector_;
  Slot horizon_ = 0;
  Slot now_ = 0;
  bool finished_ = false;
  std::vector<Job> jobs_;
  std::size_t next_ = 0;  // first job not yet activated
  std::vector<JobId> live_;
  std::vector<Slot> freeze_;  // per channel
  sim::SimMetrics metrics_;
  std::vector<sim::SlotRecord> records_;
  sim::StreamSummary stream_;
  std::vector<sim::JobResult> folded_;
};

}  // namespace crmd::tests
