// Tests for instances, trimming, and the workload generators (including the
// constructive feasibility guarantees).

#include <gtest/gtest.h>

#include <vector>

#include "util/math.hpp"
#include "util/rng.hpp"
#include "workload/feasibility.hpp"
#include "workload/generators.hpp"
#include "workload/instance.hpp"
#include "workload/trim.hpp"

namespace crmd::workload {
namespace {

// ------------------------------------------------------------ instance -----

TEST(Instance, BasicAccessors) {
  Instance inst;
  inst.jobs = {{10, 20}, {0, 64}, {5, 13}};
  EXPECT_EQ(inst.size(), 3u);
  EXPECT_EQ(inst.min_release(), 0);
  EXPECT_EQ(inst.max_deadline(), 64);
  EXPECT_EQ(inst.min_window(), 8);
  EXPECT_EQ(inst.max_window(), 64);
}

TEST(Instance, NormalizeSortsByReleaseThenDeadline) {
  Instance inst;
  inst.jobs = {{5, 9}, {0, 10}, {5, 7}, {0, 4}};
  inst.normalize();
  EXPECT_EQ(inst.jobs[0], (JobSpec{0, 4}));
  EXPECT_EQ(inst.jobs[1], (JobSpec{0, 10}));
  EXPECT_EQ(inst.jobs[2], (JobSpec{5, 7}));
  EXPECT_EQ(inst.jobs[3], (JobSpec{5, 9}));
}

TEST(Instance, NormalizeLeavesSortedInstanceAsItIs) {
  Instance inst;
  inst.jobs = {{0, 4}, {0, 4}, {0, 10}, {5, 7}, {5, 7}, {5, 9}};
  const std::vector<JobSpec> before = inst.jobs;
  inst.normalize();
  EXPECT_EQ(inst.jobs, before);
}

TEST(Instance, NormalizeSortsAnInstanceUnsortedOnlyAtItsEnd) {
  Instance inst;
  inst.jobs = {{0, 4}, {0, 10}, {5, 7}, {5, 9}, {0, 6}};
  inst.normalize();
  const std::vector<JobSpec> want = {{0, 4}, {0, 6}, {0, 10}, {5, 7}, {5, 9}};
  EXPECT_EQ(inst.jobs, want);
}

TEST(Instance, ValidRejectsEmptyWindows) {
  Instance good;
  good.jobs = {{0, 1}};
  EXPECT_TRUE(good.valid());
  Instance bad;
  bad.jobs = {{5, 5}};
  EXPECT_FALSE(bad.valid());
  Instance negative;
  negative.jobs = {{-1, 5}};
  EXPECT_FALSE(negative.valid());
}

TEST(Instance, AlignedDetection) {
  Instance aligned;
  aligned.jobs = {{0, 8}, {8, 16}, {16, 32}};
  EXPECT_TRUE(aligned.is_aligned());
  Instance off;
  off.jobs = {{4, 12}};  // size 8 but start not a multiple of 8
  EXPECT_FALSE(off.is_aligned());
  Instance notpow2;
  notpow2.jobs = {{0, 6}};
  EXPECT_FALSE(notpow2.is_aligned());
}

TEST(Instance, EmptyInstanceAccessors) {
  const Instance inst;
  EXPECT_TRUE(inst.empty());
  EXPECT_EQ(inst.min_release(), 0);
  EXPECT_EQ(inst.max_deadline(), 0);
  EXPECT_TRUE(inst.valid());
  EXPECT_TRUE(inst.is_aligned());
}

// ------------------------------------------------------------ trimming -----

TEST(Trim, ExactAlignedWindowIsItself) {
  const AlignedWindow t = trimmed(16, 32);
  EXPECT_EQ(t.start, 16);
  EXPECT_EQ(t.level, 4);
  EXPECT_EQ(t.end(), 32);
}

TEST(Trim, KnownCases) {
  // [1, 8): size 7, largest aligned window inside is [4, 8) (size 4).
  const AlignedWindow t = trimmed(1, 8);
  EXPECT_EQ(t.start, 4);
  EXPECT_EQ(t.level, 2);

  // [5, 7): size 2 but crosses no aligned size-2 boundary fully => [5,6)
  // or [6,7) at level 0; align_up(5,2)=6, 6+2=8>7, so level 0 start 5.
  const AlignedWindow u = trimmed(5, 7);
  EXPECT_EQ(u.level, 0);
  EXPECT_EQ(u.start, 5);
}

TEST(Trim, QuarterLowerBoundHoldsOnRandomWindows) {
  util::Rng rng(404);
  for (int i = 0; i < 5000; ++i) {
    const Slot r = rng.range(0, 1 << 20);
    const Slot w = rng.range(1, 1 << 12);
    const AlignedWindow t = trimmed(r, r + w);
    ASSERT_GE(t.start, r);
    ASSERT_LE(t.end(), r + w);
    ASSERT_EQ(t.start % t.size(), 0) << "not aligned";
    // |trimmed(W)| >= |W|/4 (§4).
    ASSERT_GE(4 * t.size(), w);
  }
}

TEST(Trim, InstanceTrimmingPreservesJobCount) {
  Instance inst;
  inst.jobs = {{3, 20}, {7, 100}, {0, 5}};
  const Instance t = trimmed(inst);
  ASSERT_EQ(t.size(), 3u);
  for (const auto& j : t.jobs) {
    EXPECT_TRUE(util::is_pow2(j.window()));
    EXPECT_EQ(j.release % j.window(), 0);
  }
}

TEST(Trim, Lemma15TrimmedKeepsQuarterSlack) {
  // A 4γ-slack feasible instance stays γ-slack feasible after trimming
  // (Lemma 15). Verify on generator outputs: gen_general guarantees
  // γ-slack via trimmed charging, so the trimmed instance must be feasible
  // at the same inflation.
  util::Rng rng(505);
  GeneralConfig config;
  config.min_window = 1 << 8;
  config.max_window = 1 << 11;
  config.gamma = 1.0 / 8;
  config.horizon = 1 << 14;
  for (int rep = 0; rep < 5; ++rep) {
    const Instance inst = gen_general(config, rng);
    const Instance t = trimmed(inst);
    EXPECT_TRUE(is_slack_feasible(t, config.gamma));
  }
}

// ---------------------------------------------------------- generators -----

TEST(DyadicBudget, EnforcesCapacityOnWindowAndAncestors) {
  DyadicBudget budget(/*min_level=*/3, /*max_level=*/6, /*horizon=*/64,
                      /*gamma=*/0.5);
  // Capacity at level 3 is 4 slots.
  EXPECT_EQ(budget.capacity(3), 4);
  EXPECT_TRUE(budget.try_charge(0, 3, 4));
  EXPECT_FALSE(budget.try_charge(0, 3, 1)) << "window full";
  // Sibling window still has room, but the shared ancestors absorb too.
  EXPECT_TRUE(budget.try_charge(8, 3, 4));
  // Level-4 ancestor [0,16) now holds 8 = its capacity.
  EXPECT_EQ(budget.used(0, 4), 8);
  EXPECT_FALSE(budget.try_charge(0, 4, 1));
  // Disjoint level-4 window [16,32) unaffected.
  EXPECT_TRUE(budget.try_charge(16, 4, 8));
  // Level-6 root holds 16 out of 32.
  EXPECT_EQ(budget.used(0, 6), 16);
}

TEST(DyadicBudget, RejectsOutOfHorizonWindows) {
  DyadicBudget budget(2, 4, /*horizon=*/16, 0.5);
  EXPECT_TRUE(budget.try_charge(0, 2, 1));
  EXPECT_FALSE(budget.try_charge(16, 2, 1)) << "outside horizon";
}

TEST(GenAligned, ProducesAlignedFeasibleInstances) {
  util::Rng rng(99);
  AlignedConfig config;
  config.min_class = 6;
  config.max_class = 9;
  config.gamma = 1.0 / 4;
  config.horizon = 1 << 12;
  for (int rep = 0; rep < 10; ++rep) {
    const Instance inst = gen_aligned(config, rng);
    EXPECT_TRUE(inst.valid());
    EXPECT_TRUE(inst.is_aligned());
    EXPECT_TRUE(is_slack_feasible(inst, config.gamma))
        << "rep " << rep << " with " << inst.size() << " jobs";
    for (const auto& j : inst.jobs) {
      EXPECT_GE(j.window(), util::pow2(config.min_class));
      EXPECT_LE(j.window(), util::pow2(config.max_class));
      EXPECT_LE(j.deadline, config.horizon);
    }
  }
}

TEST(GenAligned, FillScalesDensity) {
  AlignedConfig config;
  config.min_class = 6;
  config.max_class = 9;
  config.gamma = 1.0 / 4;
  config.horizon = 1 << 14;

  util::Rng rng_full(1);
  util::Rng rng_thin(1);
  config.fill = 1.0;
  const auto full = gen_aligned(config, rng_full);
  config.fill = 0.1;
  const auto thin = gen_aligned(config, rng_thin);
  EXPECT_GT(full.size(), thin.size());
}

TEST(GenGeneral, ProducesFeasibleInstances) {
  util::Rng rng(123);
  GeneralConfig config;
  config.min_window = 1 << 7;
  config.max_window = 1 << 10;
  config.gamma = 1.0 / 8;
  config.horizon = 1 << 13;
  for (int rep = 0; rep < 10; ++rep) {
    const Instance inst = gen_general(config, rng);
    EXPECT_TRUE(inst.valid());
    EXPECT_TRUE(is_slack_feasible(inst, config.gamma))
        << "rep " << rep << " with " << inst.size() << " jobs";
    for (const auto& j : inst.jobs) {
      EXPECT_GE(j.window(), config.min_window);
      EXPECT_LE(j.window(), config.max_window);
      EXPECT_GE(j.release, 0);
      EXPECT_LE(j.deadline, config.horizon);
    }
  }
}

TEST(GenGeneral, Pow2ModeRestrictsSizes) {
  util::Rng rng(321);
  GeneralConfig config;
  config.min_window = 1 << 7;
  config.max_window = 1 << 10;
  config.pow2_windows = true;
  const Instance inst = gen_general(config, rng);
  ASSERT_FALSE(inst.empty());
  for (const auto& j : inst.jobs) {
    EXPECT_TRUE(util::is_pow2(j.window()));
  }
}

TEST(GenStarvation, MatchesLemma5Construction) {
  const double gamma = 0.25;  // L = 4
  const Instance inst = gen_starvation(10, gamma);
  ASSERT_EQ(inst.size(), 10u);
  for (std::size_t j = 0; j < inst.size(); ++j) {
    EXPECT_EQ(inst.jobs[j].release, 0);
    EXPECT_EQ(inst.jobs[j].window(),
              static_cast<Slot>(4 * (j + 1)));
  }
  // The construction is γ-slack feasible (EDF serves job j in
  // ((j-1)/γ, j/γ]).
  EXPECT_TRUE(is_slack_feasible(inst, gamma));
}

TEST(GenBatch, SharedWindow) {
  const Instance inst = gen_batch(5, 64, 128);
  ASSERT_EQ(inst.size(), 5u);
  for (const auto& j : inst.jobs) {
    EXPECT_EQ(j.release, 128);
    EXPECT_EQ(j.deadline, 192);
  }
}

TEST(GenPeriodic, ReleasesFollowPeriods) {
  const std::vector<PeriodicFlow> flows{{/*period=*/16, /*deadline=*/16,
                                         /*offset=*/0},
                                        {32, 16, 8}};
  const Instance inst = gen_periodic(flows, 64);
  // Flow 1: releases 0,16,32,48 -> 4 jobs; flow 2: 8,40 -> 2 jobs.
  EXPECT_EQ(inst.size(), 6u);
  for (const auto& j : inst.jobs) {
    EXPECT_LE(j.deadline, 64);
  }
}

TEST(GenPeriodicFlows, DensityBoundImpliesFeasibility) {
  util::Rng rng(777);
  const double gamma = 1.0 / 8;
  const auto flows =
      gen_periodic_flows(20, /*min_period=*/256, /*max_period=*/2048, gamma,
                         /*fill=*/0.9, rng);
  ASSERT_FALSE(flows.empty());
  const Instance inst = gen_periodic(flows, 1 << 13);
  EXPECT_TRUE(is_slack_feasible(inst, gamma));
}

TEST(Merge, CombinesAndNormalizes) {
  const Instance a = gen_batch(2, 8, 0);
  const Instance b = gen_batch(3, 8, 16);
  const Instance m = merge(a, b);
  EXPECT_EQ(m.size(), 5u);
  EXPECT_LE(m.jobs.front().release, m.jobs.back().release);
}

}  // namespace
}  // namespace crmd::workload
