// Executable invariants for ALIGNED, checked while stepping live
// simulations (parameterized across random instances/seeds):
//
//  * Lemma 7: every live job agrees, in every slot, on which class is
//    active. Checked on private replicas, one per live job, because the
//    engine's jobs step one replica the run shares; each job's view must
//    match its private replica's.
//  * Same-window jobs share the same estimate once estimation completes,
//    and the estimate is a power of two times τ (or 0).
//  * Successful jobs always deliver inside their windows.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/aligned/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/math.hpp"
#include "workload/generators.hpp"

namespace crmd::core::aligned {
namespace {

class AlignedInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlignedInvariants, AgreementAndEstimateConsistency) {
  const std::uint64_t seed = GetParam();
  Params p;
  p.lambda = 2;
  p.tau = 4;
  p.min_class = 9;

  workload::AlignedConfig config;
  config.min_class = 9;
  config.max_class = 12;
  config.gamma = 1.0 / 16;  // dense enough for real contention
  config.horizon = 1 << 14;
  util::Rng rng(seed);
  workload::Instance instance = workload::gen_aligned(config, rng);
  if (instance.empty()) {
    GTEST_SKIP() << "generator produced an empty instance for this seed";
  }

  sim::SimConfig sc;
  sc.seed = seed;
  ASSERT_TRUE(sc.common_view());
  sim::Simulation sim(instance, make_aligned_factory(p), sc);
  // The slot each step simulated, and what every job heard in it (the
  // channel's true outcome: ternary feedback, no jammer, no faults).
  std::optional<sim::SlotRecord> simulated;
  sim.set_observer([&](const sim::SlotRecord& rec,
                       std::span<const sim::Transmission> /*tx*/) {
    simulated = rec;
  });

  // A private replica per live job, stepped as the job's own would be: a
  // job first ticks in its release slot, the slot it first shows up live.
  // Each is stamped with the slot it was last stepped in.
  std::map<JobId, std::pair<Slot, Tracker>> replicas;
  std::int64_t agreement_checks = 0;
  while (sim.step()) {
    if (!simulated) {
      continue;
    }
    const sim::SlotRecord rec = *simulated;
    simulated.reset();
    std::vector<std::pair<int, int>> level_active;  // (own level, active)
    for (const JobId id : sim.live_jobs()) {
      auto* proto = dynamic_cast<AlignedProtocol*>(sim.protocol(id));
      ASSERT_NE(proto, nullptr);
      auto& [stepped, replica] =
          replicas
              .try_emplace(id, rec.slot,
                           Tracker(std::min(p.min_class, proto->level()),
                                   proto->level()))
              .first->second;
      stepped = rec.slot;
      replica.begin_slot(rec.slot, p);
      replica.end_slot(rec.outcome, p);
      const int active = replica.active_class();
      EXPECT_EQ(proto->active_class(), active)
          << "job " << id << " at slot " << rec.slot;
      EXPECT_EQ(proto->own_estimate(), replica.view(proto->level()).estimate)
          << "job " << id << " at slot " << rec.slot;
      level_active.emplace_back(proto->level(), active);
      // Estimates are 0 or τ times a power of two.
      const std::int64_t est = proto->own_estimate();
      if (est > 0) {
        EXPECT_EQ(est % p.tau, 0);
        EXPECT_TRUE(util::is_pow2(est / p.tau));
      }
    }
    std::erase_if(replicas, [&](const auto& entry) {
      return entry.second.first != rec.slot;  // the job retired
    });
    // Lemma 7: all live jobs' replicas agree on the active class. A job of
    // level L tracks classes [min_class, L] only, so the precise invariant
    // is: whenever the replica of a job of level L1 has an active class
    // a != -1, that of every job of level L2 >= L1 has exactly a (their
    // shared range [min_class, L1] contains a, and shared class states
    // agree).
    for (const auto& [l1, a1] : level_active) {
      if (a1 < 0) {
        continue;
      }
      for (const auto& [l2, a2] : level_active) {
        if (l2 >= l1) {
          EXPECT_EQ(a2, a1) << "Lemma 7 violated at slot " << sim.now()
                            << " (levels " << l1 << " vs " << l2 << ")";
          ++agreement_checks;
        }
      }
    }
  }
  EXPECT_GT(agreement_checks, 0);

  const sim::SimResult result = sim.finish();
  for (const auto& job : result.jobs) {
    if (job.success) {
      EXPECT_GE(job.success_slot, job.release);
      EXPECT_LT(job.success_slot, job.deadline);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignedInvariants,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Same-window jobs must agree exactly on the estimate once both know it.
TEST(AlignedInvariantsFocused, SameWindowJobsShareEstimate) {
  Params p;
  p.lambda = 2;
  p.tau = 4;
  p.min_class = 11;

  const auto instance = workload::gen_batch(10, 1 << 11, 0);
  sim::SimConfig sc;
  sc.seed = 5;
  sim::Simulation sim(instance, make_aligned_factory(p), sc);

  bool compared = false;
  while (sim.step()) {
    const auto live = sim.live_jobs();
    std::int64_t common_est = -1;
    for (const JobId id : live) {
      auto* proto = dynamic_cast<AlignedProtocol*>(sim.protocol(id));
      ASSERT_NE(proto, nullptr);
      const std::int64_t est = proto->own_estimate();
      if (est < 0) {
        continue;
      }
      if (common_est < 0) {
        common_est = est;
      } else {
        EXPECT_EQ(est, common_est) << "slot " << sim.now();
        compared = true;
      }
    }
  }
  EXPECT_TRUE(compared);
}

// No ALIGNED job may ever declare a transmission probability above 1/2
// (Lemma 2's hypothesis). Checked via slot contention: with k live jobs the
// declared sum can never exceed k/2.
TEST(AlignedInvariantsFocused, DeclaredProbabilitiesRespectHalfCap) {
  Params p;
  p.lambda = 2;
  p.tau = 4;
  p.min_class = 11;

  const auto instance = workload::gen_batch(12, 1 << 11, 0);
  sim::SimConfig sc;
  sc.seed = 9;
  sim::Simulation sim(instance, make_aligned_factory(p), sc);
  sim.set_observer([&](const sim::SlotRecord& rec,
                       std::span<const sim::Transmission>) {
    EXPECT_LE(rec.contention,
              0.5 * static_cast<double>(rec.live_jobs) + 1e-9)
        << "slot " << rec.slot;
  });
  sim.finish();
}

}  // namespace
}  // namespace crmd::core::aligned
