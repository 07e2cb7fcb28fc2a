// Tests for SimMetrics / SimResult accounting.

#include <gtest/gtest.h>

#include "sim/metrics.hpp"
#include "test_helpers.hpp"
#include "sim/simulator.hpp"

namespace crmd::sim {
namespace {

SlotRecord record(SlotOutcome outcome, MessageKind kind = MessageKind::kData,
                  double contention = 0.0, bool jammed = false) {
  SlotRecord rec;
  rec.outcome = outcome;
  rec.success_kind = kind;
  rec.contention = contention;
  rec.jammed = jammed;
  return rec;
}

TEST(Metrics, CountsOutcomesByKind) {
  SimMetrics m;
  m.record(record(SlotOutcome::kSilence));
  m.record(record(SlotOutcome::kSuccess, MessageKind::kData));
  m.record(record(SlotOutcome::kSuccess, MessageKind::kControl));
  m.record(record(SlotOutcome::kSuccess, MessageKind::kStart));
  m.record(record(SlotOutcome::kSuccess, MessageKind::kLeaderClaim));
  m.record(record(SlotOutcome::kSuccess, MessageKind::kTimekeeper));
  m.record(record(SlotOutcome::kNoise, MessageKind::kData, 2.0, true));

  EXPECT_EQ(m.slots_simulated, 7);
  EXPECT_EQ(m.silent_slots, 1);
  EXPECT_EQ(m.success_slots, 5);
  EXPECT_EQ(m.noise_slots, 1);
  EXPECT_EQ(m.jammed_slots, 1);
  EXPECT_EQ(m.data_successes, 1);
  EXPECT_EQ(m.control_successes, 1);
  EXPECT_EQ(m.start_successes, 1);
  EXPECT_EQ(m.claim_successes, 1);
  EXPECT_EQ(m.timekeeper_successes, 1);
  EXPECT_EQ(m.contention.count(), 7u);
}

TEST(Metrics, DataThroughput) {
  SimMetrics m;
  EXPECT_DOUBLE_EQ(m.data_throughput(), 0.0);
  m.record(record(SlotOutcome::kSuccess, MessageKind::kData));
  m.record(record(SlotOutcome::kSilence));
  m.record(record(SlotOutcome::kSilence));
  m.record(record(SlotOutcome::kSilence));
  EXPECT_DOUBLE_EQ(m.data_throughput(), 0.25);
}

TEST(Metrics, JobResultHelpers) {
  JobResult job;
  job.release = 100;
  job.deadline = 200;
  EXPECT_EQ(job.window(), 100);
  EXPECT_EQ(job.latency(), -1);
  job.success = true;
  job.success_slot = 149;
  EXPECT_EQ(job.latency(), 50);
}

TEST(Metrics, SimResultRates) {
  SimResult result;
  EXPECT_DOUBLE_EQ(result.success_rate(), 1.0) << "vacuous on empty runs";
  JobResult ok;
  ok.success = true;
  JobResult bad;
  result.jobs = {ok, bad, ok};
  EXPECT_EQ(result.successes(), 2);
  EXPECT_NEAR(result.success_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, SlotRecordCarriesLiveJobsCount) {
  auto instance = test::instance_of({{0, 8}, {0, 8}, {4, 12}});
  const auto slots =
      test::run_recorded(instance, test::script_factory({100}), SimConfig{})
          .slots;
  ASSERT_FALSE(slots.empty());
  EXPECT_EQ(slots.front().live_jobs, 2u);
  bool saw_three = false;
  for (const auto& rec : slots) {
    if (rec.slot >= 4 && rec.slot < 8) {
      EXPECT_EQ(rec.live_jobs, 3u);
      saw_three = true;
    }
  }
  EXPECT_TRUE(saw_three);
}

}  // namespace
}  // namespace crmd::sim
