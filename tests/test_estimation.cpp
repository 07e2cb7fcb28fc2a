// Tests for ALIGNED's size-estimation protocol: bookkeeping unit tests plus
// a Monte-Carlo accuracy sweep against Lemma 8's [2n̂, τ²n̂] guarantee.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "core/aligned/estimation.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace crmd::core::aligned {
namespace {

Params test_params() {
  Params p;
  p.lambda = 2;
  p.tau = 64;
  return p;
}

TEST(Estimation, PhaseBookkeeping) {
  const Params p = test_params();
  const int level = 4;
  EstimationState est(p, level);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(level));
  EXPECT_FALSE(est.complete());
  EXPECT_EQ(est.steps_taken(), 0);
  EXPECT_EQ(est.current_phase(), 1);
  EXPECT_DOUBLE_EQ(est.tx_probability(), 0.5);

  // Drive through all λℓ² = 32 steps; phases advance every λℓ = 8 steps.
  for (int step = 0; step < p.lambda * level * level; ++step) {
    EXPECT_FALSE(est.complete());
    const int expected_phase = step / (p.lambda * level) + 1;
    EXPECT_EQ(est.current_phase(), expected_phase);
    EXPECT_DOUBLE_EQ(est.tx_probability(),
                     std::ldexp(1.0, -expected_phase));
    est.record(sim::SlotOutcome::kSilence, counts);
  }
  EXPECT_TRUE(est.complete());
}

TEST(Estimation, AllSilentResolvesToZero) {
  const Params p = test_params();
  EstimationState est(p, 3);
  std::vector<std::int64_t> counts(3);
  for (int i = 0; i < p.lambda * 9; ++i) {
    est.record(sim::SlotOutcome::kSilence, counts);
  }
  EXPECT_TRUE(est.complete());
  EXPECT_EQ(est.estimate(counts, p.tau), 0);
}

TEST(Estimation, EstimateIsTauTimesBestPhase) {
  const Params p = test_params();
  const int level = 5;
  EstimationState est(p, level);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(level));
  // Craft successes: phase 3 gets the most.
  const std::int64_t phase_len = p.estimation_phase_len(level);
  for (int phase = 1; phase <= level; ++phase) {
    for (std::int64_t s = 0; s < phase_len; ++s) {
      const bool success = (phase == 3 && s < 5) || (phase == 2 && s < 2);
      est.record(success ? sim::SlotOutcome::kSuccess
                         : sim::SlotOutcome::kNoise, counts);
    }
  }
  EXPECT_TRUE(est.complete());
  EXPECT_EQ(counts[2], 5);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(est.estimate(counts, p.tau), p.tau * util::pow2(3));
}

TEST(Estimation, TieBreaksToSmallestPhase) {
  const Params p = test_params();
  const int level = 4;
  EstimationState est(p, level);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(level));
  const std::int64_t phase_len = p.estimation_phase_len(level);
  for (int phase = 1; phase <= level; ++phase) {
    for (std::int64_t s = 0; s < phase_len; ++s) {
      // Phases 2 and 4 tie with 3 successes each.
      const bool success = (phase == 2 || phase == 4) && s < 3;
      est.record(success ? sim::SlotOutcome::kSuccess
                         : sim::SlotOutcome::kSilence, counts);
    }
  }
  EXPECT_EQ(est.estimate(counts, p.tau), p.tau * util::pow2(2));
}

TEST(Estimation, NoiseDoesNotCount) {
  const Params p = test_params();
  EstimationState est(p, 3);
  std::vector<std::int64_t> counts(3);
  for (int i = 0; i < p.lambda * 9; ++i) {
    est.record(sim::SlotOutcome::kNoise, counts);
  }
  EXPECT_EQ(est.estimate(counts, p.tau), 0);
}

// Monte-Carlo: simulate a batch of n̂ jobs running the estimation protocol
// (optionally under reactive jamming) and check Lemma 8's bracket.
struct EstimationCase {
  std::int64_t n_hat;
  double p_jam;
};

class EstimationAccuracy : public ::testing::TestWithParam<EstimationCase> {};

/// Prints a case by its values ("n_hat=128,p_jam=0.5"), so its ctest name,
/// built from this text, is the same in every build (see
/// test_generators_property.cpp).
void PrintTo(const EstimationCase& c, std::ostream* out) {
  *out << "n_hat=" << c.n_hat << ",p_jam=" << c.p_jam;
}

std::int64_t simulate_estimate(const Params& p, int level,
                               std::int64_t n_hat, double p_jam,
                               util::Rng& rng) {
  EstimationState est(p, level);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(level));
  while (!est.complete()) {
    const double tx_p = est.tx_probability();
    int transmitters = 0;
    for (std::int64_t j = 0; j < n_hat; ++j) {
      transmitters += rng.bernoulli(tx_p) ? 1 : 0;
    }
    sim::SlotOutcome outcome = sim::SlotOutcome::kSilence;
    if (transmitters == 1) {
      outcome = sim::SlotOutcome::kSuccess;
    } else if (transmitters >= 2) {
      outcome = sim::SlotOutcome::kNoise;
    }
    // Reactive jamming: attempt on successes, succeed with p_jam.
    if (outcome == sim::SlotOutcome::kSuccess && rng.bernoulli(p_jam)) {
      outcome = sim::SlotOutcome::kNoise;
    }
    est.record(outcome, counts);
  }
  return est.estimate(counts, p.tau);
}

TEST_P(EstimationAccuracy, EstimateWithinLemma8Bracket) {
  const auto [n_hat, p_jam] = GetParam();
  Params p = test_params();
  p.lambda = 4;  // higher λ: the bracket is a w.h.p. claim
  const int level = 14;
  util::Rng rng(1000 + static_cast<std::uint64_t>(n_hat * 31) +
                static_cast<std::uint64_t>(p_jam * 1000));

  constexpr int kReps = 40;
  int in_bracket = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t est = simulate_estimate(p, level, n_hat, p_jam, rng);
    if (est >= 2 * n_hat && est <= p.tau * p.tau * n_hat) {
      ++in_bracket;
    }
  }
  // Lemma 8 promises 1 - 1/w^Θ(λ); at these parameters virtually every rep
  // should land in the bracket.
  EXPECT_GE(in_bracket, kReps - 2)
      << "n_hat=" << n_hat << " p_jam=" << p_jam;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EstimationAccuracy,
    ::testing::Values(EstimationCase{1, 0.0}, EstimationCase{2, 0.0},
                      EstimationCase{8, 0.0}, EstimationCase{32, 0.0},
                      EstimationCase{128, 0.0}, EstimationCase{1024, 0.0},
                      EstimationCase{8, 0.5}, EstimationCase{128, 0.5},
                      EstimationCase{1024, 0.5}));

}  // namespace
}  // namespace crmd::core::aligned
