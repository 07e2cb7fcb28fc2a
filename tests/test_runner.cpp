// Tests for the analysis layer: outcome aggregation and the replication
// runner (determinism, jammer wiring, metric merging).

#include <gtest/gtest.h>

#include "analysis/outcomes.hpp"
#include "analysis/runner.hpp"
#include "baselines/aloha.hpp"
#include "workload/generators.hpp"

namespace crmd::analysis {
namespace {

TEST(OutcomeAggregator, BucketsByWindowSize) {
  OutcomeAggregator agg;
  sim::JobResult a;
  a.release = 0;
  a.deadline = 64;
  a.success = true;
  a.success_slot = 10;
  sim::JobResult b;
  b.release = 100;
  b.deadline = 164;
  b.success = false;
  sim::JobResult c;
  c.release = 0;
  c.deadline = 128;
  c.success = true;
  c.success_slot = 50;

  agg.add_job(a);
  agg.add_job(b);
  agg.add_job(c);

  EXPECT_EQ(agg.jobs(), 3u);
  EXPECT_EQ(agg.overall().successes(), 2u);
  ASSERT_EQ(agg.by_window().size(), 2u);
  const auto& w64 = agg.by_window().at(64);
  EXPECT_EQ(w64.deadline_met.trials(), 2u);
  EXPECT_EQ(w64.deadline_met.successes(), 1u);
  EXPECT_DOUBLE_EQ(w64.latency.mean(), 11.0);
  const auto& w128 = agg.by_window().at(128);
  EXPECT_EQ(w128.deadline_met.trials(), 1u);
  EXPECT_DOUBLE_EQ(w128.latency.mean(), 51.0);
}

TEST(Runner, DeterministicReports) {
  const InstanceGen gen = [](util::Rng& rng) {
    workload::GeneralConfig config;
    config.min_window = 1 << 6;
    config.max_window = 1 << 8;
    config.gamma = 1.0 / 4;
    config.horizon = 1 << 10;
    return workload::gen_general(config, rng);
  };
  const auto factory = baselines::make_aloha_window_factory(4.0);
  const auto a = run_replications(gen, factory, 5, 99);
  const auto b = run_replications(gen, factory, 5, 99);
  EXPECT_EQ(a.outcomes.jobs(), b.outcomes.jobs());
  EXPECT_EQ(a.outcomes.overall().successes(),
            b.outcomes.overall().successes());
  EXPECT_EQ(a.channel.slots_simulated, b.channel.slots_simulated);
  EXPECT_EQ(a.replications, 5);
}

TEST(Runner, DifferentSeedsDifferentInstances) {
  const InstanceGen gen = [](util::Rng& rng) {
    workload::GeneralConfig config;
    config.min_window = 1 << 6;
    config.max_window = 1 << 8;
    config.gamma = 1.0 / 4;
    config.horizon = 1 << 10;
    return workload::gen_general(config, rng);
  };
  const auto factory = baselines::make_aloha_window_factory(4.0);
  const auto a = run_replications(gen, factory, 3, 1);
  const auto b = run_replications(gen, factory, 3, 2);
  // Not a strict guarantee, but overwhelmingly likely to differ.
  EXPECT_TRUE(a.outcomes.jobs() != b.outcomes.jobs() ||
              a.channel.slots_simulated != b.channel.slots_simulated);
}

TEST(Runner, JammerGeneratorIsWired) {
  const InstanceGen gen = [](util::Rng&) {
    return workload::gen_batch(1, 64, 0);
  };
  const auto factory = baselines::make_aloha_factory(0.5);
  const JammerGen jam = [](util::Rng) {
    return sim::make_blanket_jammer(1.0);
  };
  const auto report = run_replications(gen, factory, 4, 7, {.jammer_gen = jam});
  // Blanket jamming with p=1 kills every transmission.
  EXPECT_EQ(report.outcomes.overall().successes(), 0u);
  EXPECT_GT(report.channel.jammed_slots, 0);
}

TEST(Runner, MergeMetricsSums) {
  sim::SimMetrics a;
  a.slots_simulated = 10;
  a.data_successes = 3;
  a.contention.add(1.0);
  sim::SimMetrics b;
  b.slots_simulated = 5;
  b.data_successes = 2;
  b.contention.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.slots_simulated, 15);
  EXPECT_EQ(a.data_successes, 5);
  EXPECT_EQ(a.contention.count(), 2u);
  EXPECT_DOUBLE_EQ(a.contention.mean(), 2.0);
}

TEST(Runner, EmptyGeneratorHandled) {
  const InstanceGen gen = [](util::Rng&) { return workload::Instance{}; };
  const auto report =
      run_replications(gen, baselines::make_aloha_factory(0.1), 3, 5);
  EXPECT_EQ(report.outcomes.jobs(), 0u);
  EXPECT_EQ(report.replications, 3);
}

}  // namespace
}  // namespace crmd::analysis
