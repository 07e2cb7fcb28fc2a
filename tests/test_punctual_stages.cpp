// Fine-grained stage-machine tests for PUNCTUAL: synchronization timing,
// probe decisions, slingshot counting, the desperate-window threshold, and
// the leader's heartbeat contents.

#include <gtest/gtest.h>

#include <vector>

#include "core/punctual/protocol.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace crmd::core::punctual {
namespace {

using Stage = PunctualProtocol::Stage;

Params base_params() {
  Params p;
  p.lambda = 2;
  p.tau = 4;
  p.min_class = 8;
  return p;
}

/// Steps the sim, recording job 0's stage before every slot.
std::vector<Stage> trace_stages(sim::Simulation& sim, int max_slots) {
  std::vector<Stage> stages;
  for (int i = 0; i < max_slots; ++i) {
    auto* proto = dynamic_cast<PunctualProtocol*>(sim.protocol(0));
    if (proto != nullptr) {
      stages.push_back(proto->stage());
    }
    if (!sim.step()) {
      break;
    }
  }
  return stages;
}

TEST(PunctualStages, LoneArrivalListensThenAnnouncesThenProbes) {
  const Params p = base_params();
  sim::Simulation sim(workload::gen_batch(1, 1 << 12, 0),
                      make_punctual_factory(p), sim::SimConfig{});
  sim.step();  // activate
  const auto stages = trace_stages(sim, 30);
  // The protocol listens for kRoundLength+1 = 12 slots, announces for two,
  // then probes. The trace samples the stage before each step *after* the
  // activation slot, so it sees 11 of the 12 listen slots.
  int listen = 0;
  int announce = 0;
  for (const Stage s : stages) {
    listen += (s == Stage::kSyncListen) ? 1 : 0;
    announce += (s == Stage::kSyncAnnounce) ? 1 : 0;
  }
  EXPECT_EQ(listen, kRoundLength);
  EXPECT_EQ(announce, 2);
  // Eventually probing (and past it).
  EXPECT_NE(std::find(stages.begin(), stages.end(), Stage::kProbe),
            stages.end());
}

TEST(PunctualStages, SilentTimekeeperSendsProbeToSlingshot) {
  const Params p = base_params();
  sim::Simulation sim(workload::gen_batch(1, 1 << 12, 0),
                      make_punctual_factory(p), sim::SimConfig{});
  bool saw_slingshot = false;
  for (int i = 0; i < 60 && sim.step(); ++i) {
    auto* proto = dynamic_cast<PunctualProtocol*>(sim.protocol(0));
    if (proto != nullptr && proto->stage() == Stage::kSlingshot) {
      saw_slingshot = true;
      break;
    }
  }
  EXPECT_TRUE(saw_slingshot);
}

TEST(PunctualStages, PullbackEndsInRecheckThenAnarchy) {
  Params p = base_params();
  p.pullback_window_frac = 0.05;  // short pullback
  sim::Simulation sim(workload::gen_batch(1, 1 << 12, 0),
                      make_punctual_factory(p), sim::SimConfig{});
  bool saw_recheck = false;
  bool saw_anarchist = false;
  std::int64_t elections = 0;
  while (sim.step()) {
    auto* proto = dynamic_cast<PunctualProtocol*>(sim.protocol(0));
    if (proto == nullptr) {
      continue;
    }
    saw_recheck |= proto->stage() == Stage::kRecheck;
    saw_anarchist |= proto->stage() == Stage::kAnarchist;
    elections = std::max(elections, proto->elections_seen());
  }
  EXPECT_TRUE(saw_recheck);
  EXPECT_TRUE(saw_anarchist);
  EXPECT_EQ(elections, p.pullback_elections(1 << 12));
}

TEST(PunctualStages, DesperateThresholdBoundary) {
  Params p = base_params();
  p.punctual_min_window = 128;

  // Window just under the threshold: desperate from activation.
  {
    sim::Simulation sim(workload::gen_batch(1, 127, 0),
                        make_punctual_factory(p), sim::SimConfig{});
    sim.step();
    auto* proto = dynamic_cast<PunctualProtocol*>(sim.protocol(0));
    ASSERT_NE(proto, nullptr);
    EXPECT_EQ(proto->stage(), Stage::kDesperate);
    EXPECT_TRUE(proto->was_anarchist());
    sim.finish();
  }
  // At the threshold: the full protocol runs.
  {
    sim::Simulation sim(workload::gen_batch(1, 128, 0),
                        make_punctual_factory(p), sim::SimConfig{});
    sim.step();
    auto* proto = dynamic_cast<PunctualProtocol*>(sim.protocol(0));
    ASSERT_NE(proto, nullptr);
    EXPECT_EQ(proto->stage(), Stage::kSyncListen);
    sim.finish();
  }
}

TEST(PunctualStages, LeaderHeartbeatAdvancesClockAndCountsDownDeadline) {
  Params p = base_params();
  p.pullback_prob_log_exp = 0.0;
  p.pullback_prob_scale = 512.0;  // elect quickly
  sim::SimConfig config;
  config.seed = 5;
  sim::Simulation sim(workload::gen_batch(1, 1 << 12, 0),
                      make_punctual_factory(p), config);
  struct Heartbeat {
    Slot slot;
    std::int64_t time;
    std::int64_t deadline_in;
  };
  std::vector<Heartbeat> beats;
  sim.set_observer([&](const sim::SlotRecord& rec,
                       std::span<const sim::Transmission>) {
    if (rec.outcome == sim::SlotOutcome::kSuccess &&
        rec.success_kind == sim::MessageKind::kTimekeeper) {
      // Message content is not in the record; re-resolve via transmissions
      // is not needed — use a second observer pattern below instead.
      beats.push_back({rec.slot, 0, 0});
    }
  });
  // Re-wire with access to the message: use the transmissions span.
  sim.set_observer([&](const sim::SlotRecord& rec,
                       std::span<const sim::Transmission> tx) {
    if (rec.outcome == sim::SlotOutcome::kSuccess && tx.size() == 1 &&
        tx.front().message.kind == sim::MessageKind::kTimekeeper) {
      beats.push_back({rec.slot, tx.front().message.time,
                       tx.front().message.deadline_in});
    }
  });
  sim.finish();
  ASSERT_GE(beats.size(), 3u);
  for (std::size_t i = 1; i < beats.size(); ++i) {
    EXPECT_EQ(beats[i].slot - beats[i - 1].slot, kRoundLength);
    EXPECT_EQ(beats[i].time - beats[i - 1].time, 1)
        << "leader time advances one per round";
    EXPECT_EQ(beats[i - 1].deadline_in - beats[i].deadline_in, kRoundLength)
        << "relative deadline counts down";
  }
}

TEST(PunctualStages, StartMarkersKeepSyncSlotsBusy) {
  // With >= 2 synced jobs the sync slots always collide; with exactly one
  // job its start markers go through as successes. Either way no long
  // silent stretch exists once someone is synced — which is what keeps
  // late arrivals able to lock on.
  const Params p = base_params();
  sim::SimConfig config;
  config.seed = 6;
  const auto run = test::run_recorded(workload::gen_batch(1, 1 << 10, 0),
                                      make_punctual_factory(p), config);
  EXPECT_GT(run.result.metrics.start_successes, 10);
  // After sync (slot ~14), no run of kRoundLength+1 consecutive silent
  // slots until the job retires.
  int silent_run = 0;
  int max_silent_run = 0;
  for (const auto& rec : run.slots) {
    if (rec.slot < 20) {
      continue;
    }
    if (rec.outcome == sim::SlotOutcome::kSilence) {
      ++silent_run;
      max_silent_run = std::max(max_silent_run, silent_run);
    } else {
      silent_run = 0;
    }
  }
  EXPECT_LE(max_silent_run, kRoundLength);
}

TEST(PunctualStages, LateArrivalAdoptsExistingFrameQuickly) {
  // Second job arrives mid-round; it must sync within ~2 rounds (the next
  // start pair) rather than announcing its own frame.
  const Params p = base_params();
  workload::Instance instance;
  instance.jobs = {{0, 1 << 12}, {40, 40 + (1 << 12)}};
  sim::SimConfig config;
  config.seed = 7;
  sim::Simulation sim(instance, make_punctual_factory(p), config);
  Slot synced_at = kNoSlot;
  while (sim.step() && synced_at == kNoSlot) {
    auto* proto = dynamic_cast<PunctualProtocol*>(sim.protocol(1));
    if (proto != nullptr && proto->clock().synced()) {
      synced_at = sim.now();
    }
  }
  ASSERT_NE(synced_at, kNoSlot);
  EXPECT_LE(synced_at - 40, 2 * kRoundLength + 2);
  sim.finish();
}

}  // namespace
}  // namespace crmd::core::punctual
