// Tests for the replicated pecking-order tracker: boundary resets, the
// smallest-incomplete-class priority rule, empty-class bookkeeping, and
// completion accounting.
//
// Class levels in these tests respect the schedulability constraint the
// paper's Lemma 12 encodes: a class ℓ can only make progress if its
// estimation cost λℓ² (plus nested smaller classes) fits inside its window
// 2^ℓ. With λ=1 that means ℓ >= 5 for the class itself and ℓ >= 8 for
// healthy multi-class progressions.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/aligned/tracker.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace crmd::core::aligned {
namespace {

Params test_params(int lambda = 1) {
  Params p;
  p.lambda = lambda;
  p.tau = 64;
  return p;
}

// Drives a tracker over silent slots [from, from+count).
void run_silent(Tracker& tracker, const Params& p, Slot from,
                Slot count) {
  for (Slot t = from; t < from + count; ++t) {
    tracker.begin_slot(t, p);
    tracker.end_slot(sim::SlotOutcome::kSilence, p);
  }
}

TEST(Tracker, SmallestClassIsActiveFirst) {
  const Params p = test_params();
  Tracker tracker(/*min_class=*/2, /*own_class=*/4);
  tracker.begin_slot(0, p);
  EXPECT_EQ(tracker.active_class(), 2);
}

TEST(Tracker, EmptyClassConsumesEstimationThenCompletes) {
  const Params p = test_params();
  Tracker tracker(/*min_class=*/5, /*own_class=*/6);
  // Class 5's estimation is λℓ² = 25 silent steps; estimate resolves to 0
  // and the (empty) class completes with no broadcast stage.
  run_silent(tracker, p, 0, 25);
  tracker.begin_slot(25, p);
  EXPECT_TRUE(tracker.view(5).complete);
  EXPECT_EQ(tracker.view(5).estimate, 0);
  EXPECT_EQ(tracker.active_class(), 6);
}

TEST(Tracker, WindowBoundaryResetsCompletedClass) {
  const Params p = test_params();
  Tracker tracker(5, 6);
  run_silent(tracker, p, 0, 32);  // class 5 completes at step 25, class 6 runs
  // t=32 is a class-5 boundary: its next window starts fresh and takes
  // priority again.
  tracker.begin_slot(32, p);
  EXPECT_EQ(tracker.active_class(), 5);
  EXPECT_FALSE(tracker.view(5).complete);
}

TEST(Tracker, StarvedClassNeverRuns) {
  // With λ=1 a class-4 window (16 slots) is exactly consumed by its own
  // estimation (16 steps): every boundary restarts it, so class 5 never
  // gets an active step. This is the degenerate regime Lemma 12's "small
  // enough γ" assumption excludes.
  const Params p = test_params();
  Tracker tracker(4, 5);
  for (Slot t = 0; t < 64; ++t) {
    tracker.begin_slot(t, p);
    EXPECT_EQ(tracker.active_class(), 4) << "slot " << t;
    tracker.end_slot(sim::SlotOutcome::kSilence, p);
  }
}

TEST(Tracker, ClassesCompleteInPeckingOrder) {
  // Classes 8, 9, 10 with λ=1 (empty, all-silent): class 8 completes its 64
  // estimation steps first, class 9 (81 steps) runs t=64..144, class 10
  // starts at t=145.
  const Params p = test_params();
  Tracker tracker(8, 10);
  Slot first_active_9 = -1;
  Slot first_active_10 = -1;
  for (Slot t = 0; t < 250; ++t) {
    tracker.begin_slot(t, p);
    const int active = tracker.active_class();
    if (active == 9 && first_active_9 < 0) {
      first_active_9 = t;
    }
    if (active == 10 && first_active_10 < 0) {
      first_active_10 = t;
    }
    tracker.end_slot(sim::SlotOutcome::kSilence, p);
  }
  EXPECT_EQ(first_active_9, 64);
  EXPECT_EQ(first_active_10, 64 + 81);
}

TEST(Tracker, SuccessesFeedTheActiveClassEstimate) {
  // Single class 7 with τ=2 so estimation+broadcast fit inside the window:
  // estimation 49 steps; a phase-1 success yields estimate τ·2 = 4 and a
  // broadcast stage of λ(2·4−2) + λ·7² = 55 steps; total 104 < 128.
  Params p = test_params();
  p.tau = 2;
  Tracker tracker(7, 7);
  const std::int64_t est_steps = p.estimation_steps(7);
  Slot t = 0;
  for (; t < est_steps; ++t) {
    tracker.begin_slot(t, p);
    EXPECT_EQ(tracker.active_class(), 7);
    tracker.end_slot(t == 0 ? sim::SlotOutcome::kSuccess
                            : sim::SlotOutcome::kSilence,
                     p);
  }
  // Estimation finished; the broadcast layout is now known.
  tracker.begin_slot(t, p);
  const auto view = tracker.view(7);
  EXPECT_FALSE(view.estimating);
  EXPECT_EQ(view.estimate, 4);
  EXPECT_FALSE(view.complete);
  ASSERT_NE(view.broadcast, nullptr);
  EXPECT_EQ(view.broadcast->total_steps(), 55);
  tracker.end_slot(sim::SlotOutcome::kSilence, p);
  ++t;

  // Drive the remaining broadcast steps to completion.
  for (std::int64_t step = 1; step < 55; ++step, ++t) {
    tracker.begin_slot(t, p);
    EXPECT_EQ(tracker.active_class(), 7);
    tracker.end_slot(sim::SlotOutcome::kSilence, p);
  }
  tracker.begin_slot(t, p);
  EXPECT_TRUE(tracker.view(7).complete);
  EXPECT_EQ(tracker.active_class(), -1);
  EXPECT_EQ(t, 104) << "total active steps must match Lemma 6's count";
}

TEST(Tracker, NoiseCountsAsStepButNotSuccess) {
  Params p = test_params();
  p.tau = 2;
  Tracker tracker(7, 7);
  for (Slot t = 0; t < p.estimation_steps(7); ++t) {
    tracker.begin_slot(t, p);
    tracker.end_slot(sim::SlotOutcome::kNoise, p);
  }
  tracker.begin_slot(p.estimation_steps(7), p);
  EXPECT_EQ(tracker.view(7).estimate, 0);
  EXPECT_TRUE(tracker.view(7).complete);
}

TEST(Tracker, TwoReplicasAgreeUnderIdenticalObservations) {
  const Params p = test_params(2);
  Tracker a(2, 5);
  Tracker b(2, 5);
  util::Rng rng(555);
  for (Slot t = 0; t < 200; ++t) {
    a.begin_slot(t, p);
    b.begin_slot(t, p);
    ASSERT_EQ(a.active_class(), b.active_class()) << "slot " << t;
    const double roll = rng.next_double();
    const sim::SlotOutcome outcome =
        roll < 0.2   ? sim::SlotOutcome::kSuccess
        : roll < 0.5 ? sim::SlotOutcome::kNoise
                     : sim::SlotOutcome::kSilence;
    a.end_slot(outcome, p);
    b.end_slot(outcome, p);
  }
}

TEST(Tracker, RepeatedStepsInOneSlotAreNoOps) {
  // A replica the jobs of a run share is begun and ended by every one of
  // them; only the first call of each per slot steps it, whatever outcome
  // a later call passes.
  const Params p = test_params(2);
  Tracker once(2, 5);
  Tracker shared(2, 5);
  util::Rng rng(909);
  for (Slot t = 0; t < 300; ++t) {
    once.begin_slot(t, p);
    for (int job = 0; job < 3; ++job) {
      shared.begin_slot(t, p);
    }
    ASSERT_EQ(once.active_class(), shared.active_class()) << "slot " << t;
    const double roll = rng.next_double();
    const sim::SlotOutcome outcome =
        roll < 0.2   ? sim::SlotOutcome::kSuccess
        : roll < 0.5 ? sim::SlotOutcome::kNoise
                     : sim::SlotOutcome::kSilence;
    once.end_slot(outcome, p);
    shared.end_slot(outcome, p);
    shared.end_slot(sim::SlotOutcome::kSuccess, p);
    shared.begin_slot(t, p);
    for (int cls = 2; cls <= 5; ++cls) {
      ASSERT_EQ(once.view(cls).estimate, shared.view(cls).estimate)
          << "slot " << t << " class " << cls;
      ASSERT_EQ(once.view(cls).broadcast_step, shared.view(cls).broadcast_step)
          << "slot " << t << " class " << cls;
      ASSERT_EQ(once.complete(cls), shared.complete(cls))
          << "slot " << t << " class " << cls;
    }
  }
}

TEST(Tracker, LateArrivalAgreesWithEarlierReplica) {
  // Replica `early` tracks from t=0 (own class 5). Replica `late` joins at
  // t=32 (a class-5 boundary). From t=32 on they must agree on every
  // class's activity — the crux of Lemma 7.
  const Params p = test_params();
  Tracker early(2, 5);
  Tracker late(2, 5);
  util::Rng rng(77);
  for (Slot t = 0; t < 96; ++t) {
    early.begin_slot(t, p);
    if (t >= 32) {
      late.begin_slot(t, p);
      ASSERT_EQ(early.active_class(), late.active_class()) << "slot " << t;
    }
    const sim::SlotOutcome outcome = rng.bernoulli(0.3)
                                         ? sim::SlotOutcome::kSuccess
                                         : sim::SlotOutcome::kSilence;
    early.end_slot(outcome, p);
    if (t >= 32) {
      late.end_slot(outcome, p);
    }
  }
}


// Everything the tracker exposes about class `cls`, as plain values.
struct ClassFacts {
  bool complete = false;
  bool estimating = false;
  std::int64_t estimation_steps = -1;  // -1 once estimation finished
  double tx_probability = 0.0;         // 0 once estimation finished
  std::int64_t broadcast_step = 0;
  std::int64_t broadcast_total = -1;  // -1 while estimating
  std::int64_t estimate = -1;
};

ClassFacts facts(const Tracker& tracker, int cls) {
  const Tracker::ClassView v = tracker.view(cls);
  ClassFacts f;
  f.complete = tracker.complete(cls);
  f.estimating = v.estimating;
  if (v.estimation != nullptr) {
    f.estimation_steps = v.estimation->steps_taken();
    f.tx_probability = v.estimation->tx_probability();
  }
  f.broadcast_step = v.broadcast_step;
  if (v.broadcast != nullptr) {
    f.broadcast_total = v.broadcast->total_steps();
  }
  f.estimate = v.estimate;
  return f;
}

// FNV-1a over 64-bit values.
void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

// How often a digest run saw each stage, so the pin is known to cover them.
struct Coverage {
  std::int64_t own_active = 0;
  std::int64_t broadcasting = 0;
  std::int64_t completed = 0;
  std::int64_t all_complete = 0;
};

// Steps one tracker through random outcomes, window boundaries and skipped
// slots, and hashes every value it exposes at every step.
std::uint64_t tracker_digest(const Params& params, int min_class,
                             int own_class, std::uint64_t seed,
                             Coverage& seen) {
  Tracker tracker(min_class, own_class);
  util::Rng rng(seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  Slot t = 0;
  for (int i = 0; i < 20000; ++i) {
    tracker.begin_slot(t, params);
    mix(h, static_cast<std::uint64_t>(tracker.active_class()));
    seen.own_active += tracker.active_class() == own_class ? 1 : 0;
    seen.all_complete += tracker.active_class() == -1 ? 1 : 0;
    for (int cls = min_class; cls <= own_class; ++cls) {
      const ClassFacts f = facts(tracker, cls);
      mix(h, f.complete ? 1 : 0);
      mix(h, f.estimating ? 1 : 0);
      mix(h, static_cast<std::uint64_t>(f.estimation_steps));
      mix(h, std::bit_cast<std::uint64_t>(f.tx_probability));
      mix(h, static_cast<std::uint64_t>(f.broadcast_step));
      mix(h, static_cast<std::uint64_t>(f.broadcast_total));
      mix(h, static_cast<std::uint64_t>(f.estimate));
      seen.broadcasting += f.broadcast_step > 0 && !f.complete ? 1 : 0;
      seen.completed += f.complete ? 1 : 0;
    }
    const double u = rng.next_double();
    tracker.end_slot(u < 0.3   ? sim::SlotOutcome::kSuccess
                     : u < 0.6 ? sim::SlotOutcome::kNoise
                               : sim::SlotOutcome::kSilence,
                     params);
    // Mostly consecutive slots; now and then a skipped slot or a stall
    // across one or more window boundaries of the smallest class.
    const std::uint64_t kind = rng.below(50);
    if (kind == 0) {
      t += 2;
    } else if (kind == 1) {
      t += 1 + static_cast<Slot>(rng.below(std::uint64_t{4} << min_class));
    } else {
      t += 1;
    }
  }
  return h;
}

TEST(Tracker, PinnedStepDigest) {
  // Pins every tracker value over two class ranges and two constant sets.
  // The golden digests hash results, not these views; this digest keeps a
  // change of the tracker's layout from moving any of them.
  Params sparse = test_params(1);
  sparse.tau = 2;
  Params dense = test_params(2);
  dense.tau = 1;
  std::uint64_t h = 0;
  Coverage seen;
  for (const Params& p : {sparse, dense}) {
    h ^= tracker_digest(p, 8, 11, 0x9e3779b97f4a7c15ULL, seen);
    h = (h << 1) | (h >> 63);
    h ^= tracker_digest(p, 9, 9, 0x2545f4914f6cdd1dULL, seen);
    h = (h << 1) | (h >> 63);
  }
  EXPECT_GT(seen.own_active, 0);
  EXPECT_GT(seen.broadcasting, 0);
  EXPECT_GT(seen.completed, 0);
  EXPECT_GT(seen.all_complete, 0);
  EXPECT_EQ(h, 0xc353671c8fe4478eULL);
}

}  // namespace
}  // namespace crmd::core::aligned
