// Tests for the slot-driven simulator: job lifecycle, channel resolution,
// success crediting, deadlines, fast-forwarding, jamming, determinism.

#include <gtest/gtest.h>

#include "sim/arrivals.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace crmd::sim {
namespace {

using test::instance_of;
using test::per_job_script_factory;
using test::run_recorded;
using test::script_factory;

TEST(Simulator, LoneJobSucceeds) {
  auto instance = instance_of({{0, 10}});
  SimConfig config;
  config.seed = 1;
  const SimResult result = run(instance, script_factory({3}), config);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_TRUE(result.jobs[0].success);
  EXPECT_EQ(result.jobs[0].success_slot, 3);
  EXPECT_EQ(result.jobs[0].latency(), 4);
  EXPECT_EQ(result.metrics.data_successes, 1);
}

TEST(Simulator, CollidingJobsBothFail) {
  auto instance = instance_of({{0, 10}, {0, 10}});
  const SimResult result = run(instance, script_factory({3}), SimConfig{});
  EXPECT_EQ(result.successes(), 0);
  EXPECT_EQ(result.metrics.noise_slots, 1);
}

TEST(Simulator, DisjointAttemptsBothSucceed) {
  auto instance = instance_of({{0, 10}, {0, 10}});
  const SimResult result =
      run(instance, per_job_script_factory({{2}, {5}}), SimConfig{});
  EXPECT_EQ(result.successes(), 2);
}

TEST(Simulator, DeadlineCutsOffTransmission) {
  // The job would transmit at offset 12, but its window is [0, 10).
  auto instance = instance_of({{0, 10}});
  const SimResult result = run(instance, script_factory({12}), SimConfig{});
  EXPECT_EQ(result.successes(), 0);
  EXPECT_FALSE(result.jobs[0].success);
  EXPECT_EQ(result.jobs[0].success_slot, kNoSlot);
}

TEST(Simulator, LastWindowSlotIsUsable) {
  auto instance = instance_of({{0, 10}});
  const SimResult result = run(instance, script_factory({9}), SimConfig{});
  EXPECT_TRUE(result.jobs[0].success);
  EXPECT_EQ(result.jobs[0].success_slot, 9);
}

TEST(Simulator, FastForwardSkipsIdleGaps) {
  auto instance = instance_of({{0, 4}, {1000000, 1000004}});
  const SimResult result =
      run(instance, script_factory({0}), SimConfig{});
  EXPECT_EQ(result.successes(), 2);
  // Only a handful of slots actually simulated; the long gap was skipped.
  EXPECT_LE(result.metrics.slots_simulated, 10);
  EXPECT_GE(result.metrics.slots_skipped, 999990);
}

TEST(Simulator, DeterministicGivenSeed) {
  workload::Instance instance;
  for (int i = 0; i < 50; ++i) {
    instance.jobs.push_back(workload::JobSpec{i % 7, i % 7 + 64});
  }
  SimConfig config;
  config.seed = 12345;
  // A randomized protocol: ALOHA-style scripted via rng in helpers is not
  // available here, so use per-slot random scripts through the seed-driven
  // factory below.
  auto factory = [](const sim::JobInfo& /*info*/, util::Rng rng) {
    class RandomProto final : public Protocol {
     public:
      explicit RandomProto(util::Rng r) : rng_(r) {}
      void on_activate(const JobInfo& info) override { info_ = info; }
      SlotAction on_slot(const SlotView&) override {
        SlotAction a;
        tx_ = rng_.bernoulli(0.05);
        if (tx_) {
          a.transmit = true;
          a.message = make_data(info_.id);
          a.declared_prob = 0.05;
        }
        return a;
      }
      void on_feedback(const SlotView&, const SlotFeedback& fb) override {
        if (tx_ && fb.outcome == SlotOutcome::kSuccess) {
          done_ = true;
        }
      }
      bool done() const override { return done_; }

     private:
      util::Rng rng_;
      JobInfo info_;
      bool tx_ = false;
      bool done_ = false;
    };
    return std::make_unique<RandomProto>(rng);
  };

  const SimResult a = run(instance, factory, config);
  const SimResult b = run(instance, factory, config);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].success, b.jobs[i].success);
    EXPECT_EQ(a.jobs[i].success_slot, b.jobs[i].success_slot);
  }
  EXPECT_EQ(a.metrics.data_successes, b.metrics.data_successes);
  EXPECT_EQ(a.metrics.noise_slots, b.metrics.noise_slots);
}

TEST(Simulator, RecordSlotsTracesEverySimulatedSlot) {
  auto instance = instance_of({{0, 5}});
  const auto slots =
      run_recorded(instance, script_factory({2}), SimConfig{}).slots;
  // Slots 0,1,2 are simulated; the job retires on success at slot 2.
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].outcome, SlotOutcome::kSilence);
  EXPECT_EQ(slots[2].outcome, SlotOutcome::kSuccess);
  EXPECT_EQ(slots[2].success_kind, MessageKind::kData);
  EXPECT_EQ(slots[2].transmitters, 1u);
}

TEST(Simulator, ObserverSeesTransmissions) {
  auto instance = instance_of({{0, 5}, {0, 5}});
  Simulation sim(instance, script_factory({1}), SimConfig{});
  int observed_tx = 0;
  int observed_slots = 0;
  sim.set_observer([&](const SlotRecord& rec,
                       std::span<const Transmission> tx) {
    ++observed_slots;
    observed_tx += static_cast<int>(tx.size());
    if (rec.slot == 1) {
      EXPECT_EQ(tx.size(), 2u);
    }
  });
  sim.finish();
  EXPECT_GT(observed_slots, 0);
  EXPECT_EQ(observed_tx, 2);
}

TEST(Simulator, ContentionIsSumOfDeclaredProbs) {
  auto instance = instance_of({{0, 4}, {0, 4}, {0, 4}});
  // Script transmits at offset 1 with declared probability 1 each.
  const auto slots =
      run_recorded(instance, script_factory({1}), SimConfig{}).slots;
  ASSERT_GE(slots.size(), 2u);
  EXPECT_DOUBLE_EQ(slots[0].contention, 0.0);
  EXPECT_DOUBLE_EQ(slots[1].contention, 3.0);
}

TEST(Simulator, HorizonStopsEarly) {
  auto instance = instance_of({{0, 100}});
  SimConfig config;
  config.horizon = 5;
  const SimResult result = run(instance, script_factory({50}), config);
  EXPECT_FALSE(result.jobs[0].success);
  EXPECT_LE(result.metrics.slots_simulated, 5);
}

TEST(Simulator, HorizonCutSkipsNoGapTowardJobsPastIt) {
  // Job 0 succeeds at slot 3. Job 1 is released past the 50-slot horizon:
  // it never enters, so no idle gap is skipped toward it, but it still
  // gets its JobResult. A streaming replay of the same jobs agrees.
  const auto instance = instance_of({{0, 10}, {100, 200}});
  SimConfig config;
  config.horizon = 50;
  const SimResult batch = run(instance, script_factory({3}), config);
  EXPECT_EQ(batch.metrics.slots_simulated, 4);
  EXPECT_EQ(batch.metrics.slots_skipped, 0);
  ASSERT_EQ(batch.jobs.size(), 2u);
  EXPECT_TRUE(batch.jobs[0].success);
  EXPECT_EQ(batch.jobs[1].live_slots, 0);
  const SimResult streamed =
      run_stream(std::make_unique<VectorArrivals>(instance.jobs),
                 script_factory({3}), config);
  EXPECT_EQ(streamed.metrics.slots_simulated, 4);
  EXPECT_EQ(streamed.metrics.slots_skipped, 0);
}

TEST(Simulator, BatchRunKeepsOneResultPerInstanceJob) {
  // Job 0 succeeds at slot 2 and job 1 is still live at the horizon (slot
  // 20). Jobs 2 and 3 are released at and past the horizon, so they never
  // enter: zero counters, no success. Batch runs ignore
  // keep_job_results = false and leave the stream summary empty.
  const auto instance =
      instance_of({{0, 10}, {15, 40}, {20, 30}, {40, 50}});
  for (const bool keep : {true, false}) {
    SimConfig config;
    config.horizon = 20;
    config.keep_job_results = keep;
    const SimResult result = run(
        instance, per_job_script_factory({{2}, {100}, {0}, {0}}), config);
    ASSERT_EQ(result.jobs.size(), instance.size()) << keep;
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const JobResult& job = result.jobs[i];
      EXPECT_EQ(job.id, static_cast<JobId>(i)) << keep;
      EXPECT_EQ(job.release, instance.jobs[i].release) << keep;
      EXPECT_EQ(job.deadline, instance.jobs[i].deadline) << keep;
    }
    EXPECT_TRUE(result.jobs[0].success) << keep;
    EXPECT_EQ(result.jobs[0].success_slot, 2) << keep;
    EXPECT_FALSE(result.jobs[1].success) << keep;
    EXPECT_EQ(result.jobs[1].live_slots, 5) << keep;
    for (std::size_t i = 2; i < instance.size(); ++i) {
      const JobResult& job = result.jobs[i];
      EXPECT_FALSE(job.success) << keep;
      EXPECT_EQ(job.success_slot, kNoSlot) << keep;
      EXPECT_EQ(job.transmissions, 0) << keep;
      EXPECT_EQ(job.live_slots, 0) << keep;
      EXPECT_EQ(job.dark_slots, 0) << keep;
      EXPECT_EQ(job.listen_slots, 0) << keep;
    }
    EXPECT_EQ(result.stream.jobs, 0) << keep;
  }

  SimConfig config;
  config.keep_job_results = false;
  const SimResult empty =
      run(workload::Instance{}, script_factory({0}), config);
  EXPECT_TRUE(empty.jobs.empty());
  EXPECT_EQ(empty.metrics.slots_simulated, 0);
  EXPECT_EQ(empty.metrics.slots_skipped, 0);
}

TEST(Simulator, SteppingApiExposesLiveJobs) {
  auto instance = instance_of({{0, 10}, {3, 10}});
  Simulation sim(instance, script_factory({100}), SimConfig{});
  EXPECT_FALSE(sim.finished());
  ASSERT_TRUE(sim.step());  // slot 0
  EXPECT_EQ(sim.live_jobs().size(), 1u);
  EXPECT_NE(sim.protocol(0), nullptr);
  EXPECT_EQ(sim.protocol(1), nullptr);
  ASSERT_TRUE(sim.step());  // slot 1
  ASSERT_TRUE(sim.step());  // slot 2
  ASSERT_TRUE(sim.step());  // slot 3: second job activates
  EXPECT_EQ(sim.live_jobs().size(), 2u);
  const SimResult result = sim.finish();
  EXPECT_TRUE(sim.finished());
  EXPECT_EQ(result.jobs.size(), 2u);
}

TEST(Simulator, BlanketJamTurnsSuccessIntoNoise) {
  auto instance = instance_of({{0, 6}});
  const auto run = run_recorded(instance, script_factory({2}), SimConfig{},
                                make_blanket_jammer(/*p_jam=*/1.0));
  EXPECT_EQ(run.result.successes(), 0);
  EXPECT_GT(run.result.metrics.jammed_slots, 0);
  // The job's attempt slot became noise.
  ASSERT_GT(run.slots.size(), 2u);
  EXPECT_EQ(run.slots[2].outcome, SlotOutcome::kNoise);
  EXPECT_TRUE(run.slots[2].jammed);
}

TEST(Simulator, ZeroProbJammerNeverFires) {
  auto instance = instance_of({{0, 6}});
  const SimResult result = run(instance, script_factory({2}), SimConfig{},
                               make_blanket_jammer(/*p_jam=*/0.0));
  EXPECT_EQ(result.successes(), 1);
  EXPECT_EQ(result.metrics.jammed_slots, 0);
}

TEST(Simulator, ReactiveJammerHalvesSuccessRate) {
  // 200 lone jobs in disjoint windows; reactive jamming at p=0.5 should
  // kill roughly half the successes.
  workload::Instance instance;
  for (int i = 0; i < 200; ++i) {
    instance.jobs.push_back(workload::JobSpec{i * 10, i * 10 + 5});
  }
  SimConfig config;
  config.seed = 7;
  const SimResult result = run(instance, script_factory({0}), config,
                               make_reactive_jammer(0.5));
  EXPECT_GT(result.successes(), 60);
  EXPECT_LT(result.successes(), 140);
}

TEST(Simulator, EmptyInstanceFinishesImmediately) {
  const SimResult result =
      run(workload::Instance{}, script_factory({0}), SimConfig{});
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_EQ(result.metrics.slots_simulated, 0);
  EXPECT_DOUBLE_EQ(result.success_rate(), 1.0);
}

TEST(Simulator, JobReleasedAtSameSlotAsOthersRetire) {
  // Job 0 succeeds at slot 2 and retires; job 1 releases at slot 2.
  auto instance = instance_of({{0, 10}, {2, 12}});
  const SimResult result =
      run(instance, per_job_script_factory({{2}, {1}}), SimConfig{});
  // Job 1 transmits at since_release=1 => slot 3. Both should succeed
  // (job 0 at slot 2, job 1 at slot 3).
  EXPECT_EQ(result.successes(), 2);
}

}  // namespace
}  // namespace crmd::sim
