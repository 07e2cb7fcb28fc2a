// Regression tests for the engine's O(1) retire bookkeeping (the
// live-position index introduced with the data-oriented slot engine,
// DESIGN.md §6e): a job that both wins the slot and reports done() in the
// same slot is retired exactly once, the live list never contains retired
// or duplicate ids, and the swap-remove order matches what protocols and
// metrics observed under the original O(live) std::find retire path.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/arena.hpp"

namespace crmd::sim {
namespace {

using test::instance_of;
using test::per_job_script_factory;
using test::script_factory;

/// Steps the simulation to completion, asserting the live-set invariants
/// after every slot: no duplicates, no retired ids resurfacing, and
/// `protocol()` agreeing with membership. Returns the result. (Jobs still
/// live when the horizon ends the run are never formally retired — that is
/// historical engine semantics — so the final live set is not required to
/// be empty.)
SimResult finish_checked(Simulation& sim) {
  std::set<JobId> ever_retired;
  std::vector<JobId> prev_live;
  while (true) {
    const bool more = sim.step();
    const std::vector<JobId> live = sim.live_jobs();
    std::set<JobId> seen;
    for (const JobId id : live) {
      EXPECT_TRUE(seen.insert(id).second)
          << "duplicate live id " << id << " at slot " << sim.now();
      EXPECT_EQ(ever_retired.count(id), 0u)
          << "retired id " << id << " resurfaced at slot " << sim.now();
      EXPECT_NE(sim.protocol(id), nullptr) << "live id " << id;
    }
    for (const JobId id : prev_live) {
      if (seen.count(id) == 0) {
        ever_retired.insert(id);
        EXPECT_EQ(sim.protocol(id), nullptr) << "retired id " << id;
      }
    }
    prev_live = live;
    if (!more) {
      break;
    }
  }
  return sim.finish();
}

// ScriptProtocol reports done() as soon as it succeeds, so the winner of a
// slot lands in the retire list twice conceptually: once from the success
// credit, once from the done() sweep. It must retire exactly once, with
// every counter counted once.
TEST(RetireOrdering, SuccessAndDoneSameSlotRetiresOnce) {
  auto instance = instance_of({{0, 10}});
  Simulation sim(instance, script_factory({3}), SimConfig{});
  const SimResult result = finish_checked(sim);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_TRUE(result.jobs[0].success);
  EXPECT_EQ(result.jobs[0].success_slot, 3);
  // Live for slots 0..3 exactly once each — a double retire (or a missed
  // one) would distort this count.
  EXPECT_EQ(result.jobs[0].live_slots, 4);
  EXPECT_EQ(result.jobs[0].transmissions, 1);
  EXPECT_EQ(result.metrics.data_successes, 1);
}

// Many jobs hitting their deadline in the same slot exercises repeated
// swap-removal from the middle and the back of the live list.
TEST(RetireOrdering, MassDeadlineExpiryKeepsLiveListConsistent) {
  // Jobs 0..7 all expire at slot 8 (their script offset never fires);
  // jobs 8-9 live on until 20 and succeed in disjoint slots.
  std::vector<std::vector<Slot>> scripts;
  workload::Instance instance;
  for (int i = 0; i < 8; ++i) {
    instance.jobs.push_back(workload::JobSpec{0, 8});
    scripts.push_back({100});  // never fires
  }
  instance.jobs.push_back(workload::JobSpec{0, 20});
  instance.jobs.push_back(workload::JobSpec{0, 20});
  scripts.push_back({10});
  scripts.push_back({12});
  Simulation sim(instance, per_job_script_factory(scripts), SimConfig{});
  const SimResult result = finish_checked(sim);
  EXPECT_EQ(result.successes(), 2);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(result.jobs[static_cast<std::size_t>(i)].success);
    // Live for exactly the 8 slots of their window — retired once, at the
    // deadline, not before or after.
    EXPECT_EQ(result.jobs[static_cast<std::size_t>(i)].live_slots, 8);
  }
}

// A winner retiring in the same slot as deadline expirations of *other*
// jobs: both retire paths run in one step() and must not interfere.
// Instances are normalized (sorted by release, then deadline), so the
// short-deadline jobs get ids 0-1 and the winner id 2.
TEST(RetireOrdering, WinnerAndExpiryInOneSlot) {
  // Jobs 0-1 expire in slot 5's deadline sweep; job 2 then transmits alone
  // in the very same slot and wins.
  auto instance = instance_of({{0, 5}, {0, 5}, {0, 10}});
  Simulation sim(instance,
                 per_job_script_factory({{100}, {100}, {5}}), SimConfig{});
  const SimResult result = finish_checked(sim);
  EXPECT_EQ(result.successes(), 1);
  EXPECT_TRUE(result.jobs[2].success);
  EXPECT_EQ(result.jobs[2].success_slot, 5);
  EXPECT_EQ(result.jobs[2].live_slots, 6);
  EXPECT_EQ(result.jobs[0].live_slots, 5);
  EXPECT_EQ(result.jobs[1].live_slots, 5);
}

// done() is read for a dark job too, in place of its on_feedback: a job
// that has nothing to send from activation on retires in its first slot
// even while stalled, instead of sitting out the stall live.
TEST(RetireOrdering, DoneDarkJobRetiresInItsFirstSlot) {
  class NothingToSend final : public Protocol {
   public:
    void on_activate(const JobInfo& /*info*/) override {}
    SlotAction on_slot(const SlotView& /*view*/) override { return {}; }
    void on_feedback(const SlotView& /*view*/,
                     const SlotFeedback& /*fb*/) override {}
    [[nodiscard]] bool done() const override { return true; }
  };
  const ProtocolFactory factory = [](const JobInfo&, util::Rng) {
    return std::make_unique<NothingToSend>();
  };
  SimConfig config;
  config.faults.crash_rate = 1.0;  // every job stalls in its first slot
  Simulation sim(instance_of({{0, 100}}), factory, config);
  const SimResult result = finish_checked(sim);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].live_slots, 1);
  EXPECT_EQ(result.jobs[0].dark_slots, 1);
}

// Heap-only (legacy ad-hoc lambda) factories take the non-arena ownership
// path through the same retire bookkeeping; the engine must destroy those
// protocols with `delete` exactly once (ASan would flag double-free or
// leak here).
TEST(RetireOrdering, HeapOnlyFactoryRetiresCleanly) {
  auto instance = instance_of({{0, 6}, {0, 6}});
  const ProtocolFactory heap_only =
      [](const JobInfo& /*info*/, util::Rng /*rng*/) {
        return std::make_unique<test::ScriptProtocol>(
            std::vector<Slot>{100});
      };
  EXPECT_FALSE(heap_only.arena_aware());
  Simulation sim(instance, heap_only, SimConfig{});
  const SimResult result = finish_checked(sim);
  EXPECT_EQ(result.successes(), 0);
}

// The registered factories construct protocols in the simulation's arena;
// spot-check the plumbing end to end (arena path chosen, results sane).
TEST(RetireOrdering, ArenaFactoryMatchesHeapPathResults) {
  const ProtocolFactory arena_factory(
      [](const JobInfo& /*info*/, util::Rng /*rng*/) {
        return std::make_unique<test::ScriptProtocol>(
            std::vector<Slot>{2});
      },
      [](const JobInfo& /*info*/, util::Rng /*rng*/,
         util::MonotonicArena& arena) -> Protocol* {
        return arena.create<test::ScriptProtocol>(std::vector<Slot>{2});
      });
  ASSERT_TRUE(arena_factory.arena_aware());
  const ProtocolFactory heap_only =
      [](const JobInfo& /*info*/, util::Rng /*rng*/) {
        return std::make_unique<test::ScriptProtocol>(
            std::vector<Slot>{2});
      };
  auto instance = instance_of({{0, 8}, {3, 11}, {6, 14}});
  SimConfig config;
  config.record_slots = true;
  const SimResult via_arena = run(instance, arena_factory, config);
  const SimResult via_heap = run(instance, heap_only, config);
  ASSERT_EQ(via_arena.jobs.size(), via_heap.jobs.size());
  for (std::size_t i = 0; i < via_arena.jobs.size(); ++i) {
    EXPECT_EQ(via_arena.jobs[i].success, via_heap.jobs[i].success);
    EXPECT_EQ(via_arena.jobs[i].success_slot, via_heap.jobs[i].success_slot);
    EXPECT_EQ(via_arena.jobs[i].live_slots, via_heap.jobs[i].live_slots);
    EXPECT_EQ(via_arena.jobs[i].transmissions,
              via_heap.jobs[i].transmissions);
  }
  EXPECT_EQ(via_arena.metrics.slots_simulated,
            via_heap.metrics.slots_simulated);
}

}  // namespace
}  // namespace crmd::sim
