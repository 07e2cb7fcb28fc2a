// Integration tests for PUNCTUAL (§4): synchronization, leader election,
// following, deposition/handoff, the anarchist path, and end-to-end success
// on general instances.
//
// Leader election at the paper's claim rate 1/(w log³w) only fires at
// asymptotic window sizes; tests that exercise election raise
// pullback_prob_scale (a documented constants knob) so the machinery runs
// within laptop-sized windows.

#include <gtest/gtest.h>

#include "core/punctual/protocol.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace crmd::core::punctual {
namespace {

Params fast_params() {
  Params p;
  p.lambda = 2;
  p.tau = 4;
  p.min_class = 8;
  p.pullback_window_frac = 0.1;
  return p;
}

Params electing_params() {
  Params p = fast_params();
  p.pullback_prob_log_exp = 0.0;
  p.pullback_prob_scale = 256.0;  // claims fire within small windows
  return p;
}

TEST(PunctualIntegration, LoneJobSucceedsViaAnarchy) {
  Params p = fast_params();
  p.lambda = 4;  // boost the anarchist rate for a near-certain lone success
  const auto instance = workload::gen_batch(1, 1 << 12, 0);
  sim::SimConfig config;
  config.seed = 2;
  const auto result = sim::run(instance, make_punctual_factory(p), config);
  EXPECT_EQ(result.successes(), 1);
}

TEST(PunctualIntegration, LoneJobBecomesLeaderAndDeliversAtAbdication) {
  const Params p = electing_params();
  const auto instance = workload::gen_batch(1, 1 << 12, 0);
  sim::SimConfig config;
  config.seed = 5;
  const auto result = sim::run(instance, make_punctual_factory(p), config);
  ASSERT_EQ(result.successes(), 1);
  // A leader delivers its data in its final timekeeper slot, so the
  // success must land near the end of the window.
  EXPECT_GT(result.jobs[0].success_slot,
            result.jobs[0].deadline - 2 * kRoundLength);
  // Timekeeper heartbeats must have been broadcast.
  EXPECT_GT(result.metrics.timekeeper_successes, 10);
}

TEST(PunctualIntegration, TinyWindowUsesDesperateFallback) {
  Params p = fast_params();
  p.punctual_min_window = 64;
  const auto instance = workload::gen_batch(1, 48, 0);
  sim::SimConfig config;
  config.seed = 3;
  const auto result = sim::run(instance, make_punctual_factory(p), config);
  EXPECT_EQ(result.successes(), 1);
}

TEST(PunctualIntegration, TwoArrivalsAgreeOnRoundGrid) {
  // Job 0 arrives into silence and announces a frame; job 1 arrives later
  // and must adopt the same grid (same global slot -> same offset).
  const Params p = fast_params();
  workload::Instance instance;
  instance.jobs = {{0, 1 << 12}, {100, (1 << 12) + 100}};
  sim::SimConfig config;
  config.seed = 8;
  sim::Simulation sim(instance, make_punctual_factory(p), config);

  bool compared = false;
  while (sim.step()) {
    if (sim.now() < 150 || sim.now() > 400) {
      continue;
    }
    auto* a = dynamic_cast<PunctualProtocol*>(sim.protocol(0));
    auto* b = dynamic_cast<PunctualProtocol*>(sim.protocol(1));
    if (a == nullptr || b == nullptr) {
      continue;
    }
    if (!a->clock().synced() || !b->clock().synced()) {
      continue;
    }
    // Translate both anchors to global slots and compare round phases.
    const Slot t = sim.now();
    const std::int64_t off_a = a->clock().offset(t - 0);
    const std::int64_t off_b = b->clock().offset(t - 100);
    EXPECT_EQ(off_a, off_b) << "slot " << t;
    compared = true;
  }
  EXPECT_TRUE(compared);
  sim.finish();
}

TEST(PunctualIntegration, FollowersRunAlignedUnderALeader) {
  // One long-window job becomes the leader; a batch of shorter jobs
  // arrives afterwards, hears the leader's heartbeat (deadline after
  // theirs) and runs ALIGNED inside the aligned slots.
  Params p = electing_params();
  p.lambda = 1;
  workload::Instance instance = workload::gen_batch(1, 1 << 14, 0);
  instance = workload::merge(instance,
                             workload::gen_batch(8, 1 << 13, 512));
  sim::SimConfig config;
  config.seed = 21;
  sim::Simulation sim(instance, make_punctual_factory(p), config);

  bool saw_leader = false;
  bool saw_follower = false;
  while (sim.step()) {
    for (const JobId id : sim.live_jobs()) {
      auto* proto = dynamic_cast<PunctualProtocol*>(sim.protocol(id));
      if (proto == nullptr) {
        continue;
      }
      saw_leader |= proto->is_leader();
      saw_follower |= proto->stage() == PunctualProtocol::Stage::kFollowRun;
    }
  }
  EXPECT_TRUE(saw_leader);
  EXPECT_TRUE(saw_follower);

  const auto result = sim.finish();
  // The followers (window 2^13) should essentially all succeed; the leader
  // delivers at abdication.
  std::int64_t follower_successes = 0;
  for (const auto& job : result.jobs) {
    if (job.window() == (1 << 13) && job.success) {
      ++follower_successes;
    }
  }
  EXPECT_GE(follower_successes, 7) << "of 8 followers";
}

TEST(PunctualIntegration, LaterDeadlineClaimDeposesLeader) {
  // Leader with window 2^12 elected first; a job with a much later deadline
  // arrives, slingshots (the leader's deadline is earlier than its own),
  // wins a claim, and deposes. The old leader still delivers its data in
  // the handoff timekeeper slot.
  Params p = electing_params();
  workload::Instance instance;
  instance.jobs = {{0, 1 << 12}, {256, 256 + (1 << 13)}};
  sim::SimConfig config;
  config.seed = 31;
  sim::Simulation sim(instance, make_punctual_factory(p), config);

  bool saw_handoff = false;
  bool second_led = false;
  while (sim.step()) {
    auto* first = dynamic_cast<PunctualProtocol*>(sim.protocol(0));
    auto* second = dynamic_cast<PunctualProtocol*>(sim.protocol(1));
    if (first != nullptr &&
        first->stage() == PunctualProtocol::Stage::kLeadHandoff) {
      saw_handoff = true;
    }
    if (second != nullptr && second->is_leader()) {
      second_led = true;
    }
  }
  const auto result = sim.finish();
  EXPECT_TRUE(second_led);
  if (saw_handoff) {
    // Deposed leaders deliver their data in the handoff slot.
    EXPECT_TRUE(result.jobs[0].success);
  }
  // The new leader delivers at its own abdication.
  EXPECT_TRUE(result.jobs[1].success);
}

TEST(PunctualIntegration, BatchWithoutElectionsGoesAnarchistAndDrains) {
  // With the paper's (tiny) claim rate nobody gets elected at this window
  // size: the batch rechecks, finds no leader, and releases the slingshot.
  // A small batch then drains through the anarchy slots.
  Params p = fast_params();
  p.lambda = 4;
  const auto instance = workload::gen_batch(4, 1 << 13, 0);
  sim::SimConfig config;
  config.seed = 12;
  sim::Simulation sim(instance, make_punctual_factory(p), config);
  bool saw_anarchist = false;
  while (sim.step()) {
    for (const JobId id : sim.live_jobs()) {
      auto* proto = dynamic_cast<PunctualProtocol*>(sim.protocol(id));
      if (proto != nullptr && proto->was_anarchist()) {
        saw_anarchist = true;
      }
    }
  }
  const auto result = sim.finish();
  EXPECT_TRUE(saw_anarchist);
  EXPECT_GE(result.successes(), 3) << "of 4";
}

TEST(PunctualIntegration, DeterministicAcrossRuns) {
  const Params p = electing_params();
  workload::Instance instance = workload::gen_batch(6, 1 << 12, 0);
  instance = workload::merge(instance, workload::gen_batch(3, 1 << 12, 777));
  sim::SimConfig config;
  config.seed = 1234;
  const auto a = sim::run(instance, make_punctual_factory(p), config);
  const auto b = sim::run(instance, make_punctual_factory(p), config);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].success, b.jobs[i].success);
    EXPECT_EQ(a.jobs[i].success_slot, b.jobs[i].success_slot);
  }
}

TEST(PunctualIntegration, GeneralInstanceMostlySucceeds) {
  Params p = fast_params();
  p.lambda = 4;
  workload::GeneralConfig config;
  config.min_window = 1 << 11;
  config.max_window = 1 << 13;
  config.gamma = 1.0 / 64;
  config.horizon = 1 << 15;
  util::Rng rng(808);
  const auto instance = workload::gen_general(config, rng);
  ASSERT_FALSE(instance.empty());
  sim::SimConfig sc;
  sc.seed = 808;
  const auto result = sim::run(instance, make_punctual_factory(p), sc);
  EXPECT_GE(result.success_rate(), 0.8)
      << result.successes() << "/" << result.jobs.size();
}

TEST(PunctualIntegration, GuardSlotsStaySilent) {
  // Once the system is synced, guard slots must never carry transmissions
  // (the two-consecutive-busy invariant depends on it).
  const Params p = electing_params();
  const auto instance = workload::gen_batch(5, 1 << 12, 0);
  sim::SimConfig config;
  config.seed = 44;
  sim::Simulation sim(instance, make_punctual_factory(p), config);

  // Find the frame via any synced job, then check guard silence.
  std::int64_t violations = 0;
  Slot anchor_global = kNoSlot;
  sim.set_observer([&](const sim::SlotRecord& rec,
                       std::span<const sim::Transmission> tx) {
    if (anchor_global == kNoSlot) {
      return;
    }
    const std::int64_t off = (rec.slot - anchor_global) % kRoundLength;
    if (slot_type(off) == SlotType::kGuard && !tx.empty()) {
      ++violations;
    }
  });
  while (sim.step()) {
    if (anchor_global != kNoSlot) {
      continue;
    }
    for (const JobId id : sim.live_jobs()) {
      auto* proto = dynamic_cast<PunctualProtocol*>(sim.protocol(id));
      if (proto != nullptr && proto->clock().synced()) {
        // All jobs released at 0: since-release == global.
        const Slot t = sim.now();
        anchor_global = t - proto->clock().offset(t);
        break;
      }
    }
  }
  sim.finish();
  EXPECT_EQ(violations, 0);
}

}  // namespace
}  // namespace crmd::core::punctual
