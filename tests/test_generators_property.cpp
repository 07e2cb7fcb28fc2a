// Parameterized property sweeps over the workload generators: every
// generated instance must honor its advertised slack guarantee, its window
// bounds, and its horizon, across a grid of (gamma, fill, pow2) settings.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "util/math.hpp"
#include "util/rng.hpp"
#include "workload/feasibility.hpp"
#include "workload/generators.hpp"
#include "workload/trim.hpp"

namespace crmd::workload {
namespace {

struct GenCase {
  double gamma;
  double fill;
  bool pow2;
};

/// Prints a case by its values ("gamma=1/8,fill=0.5,pow2"). gtest prints a
/// struct without one as its raw bytes, padding included, and the ctest
/// name is built from that text, so it would change from build to build.
void PrintTo(const GenCase& c, std::ostream* out) {
  *out << "gamma=1/" << std::lround(1.0 / c.gamma) << ",fill=" << c.fill
       << (c.pow2 ? ",pow2" : "");
}

class GeneralGenProperties : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneralGenProperties, FeasibleWithinBoundsAndHorizon) {
  const auto [gamma, fill, pow2] = GetParam();
  GeneralConfig config;
  config.min_window = 1 << 7;
  config.max_window = 1 << 10;
  config.gamma = gamma;
  config.fill = fill;
  config.pow2_windows = pow2;
  config.horizon = 1 << 12;
  util::Rng rng(static_cast<std::uint64_t>(gamma * 1e6) +
                static_cast<std::uint64_t>(fill * 100) + (pow2 ? 7 : 0));
  for (int rep = 0; rep < 4; ++rep) {
    const Instance inst = gen_general(config, rng);
    EXPECT_TRUE(inst.valid());
    EXPECT_TRUE(is_slack_feasible(inst, gamma));
    for (const auto& j : inst.jobs) {
      EXPECT_GE(j.window(), config.min_window);
      EXPECT_LE(j.window(), config.max_window);
      EXPECT_GE(j.release, 0);
      EXPECT_LE(j.deadline, config.horizon);
      if (pow2) {
        EXPECT_TRUE(util::is_pow2(j.window()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeneralGenProperties,
    ::testing::Values(GenCase{1.0 / 4, 1.0, false},
                      GenCase{1.0 / 4, 0.25, false},
                      GenCase{1.0 / 8, 1.0, true},
                      GenCase{1.0 / 8, 0.5, false},
                      GenCase{1.0 / 16, 1.0, false},
                      GenCase{1.0 / 16, 0.1, true},
                      GenCase{1.0 / 32, 1.0, true}));

class AlignedGenProperties : public ::testing::TestWithParam<GenCase> {};

TEST_P(AlignedGenProperties, FeasibleAlignedWithinHorizon) {
  const auto [gamma, fill, unused] = GetParam();
  (void)unused;
  AlignedConfig config;
  config.min_class = 5;
  config.max_class = 9;
  config.gamma = gamma;
  config.fill = fill;
  config.horizon = 1 << 11;
  util::Rng rng(static_cast<std::uint64_t>(gamma * 1e6) +
                static_cast<std::uint64_t>(fill * 100));
  for (int rep = 0; rep < 4; ++rep) {
    const Instance inst = gen_aligned(config, rng);
    EXPECT_TRUE(inst.valid());
    EXPECT_TRUE(inst.is_aligned());
    EXPECT_TRUE(is_slack_feasible(inst, gamma));
    EXPECT_LE(inst.max_deadline(), config.horizon);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AlignedGenProperties,
    ::testing::Values(GenCase{1.0 / 4, 1.0, false},
                      GenCase{1.0 / 4, 0.3, false},
                      GenCase{1.0 / 8, 1.0, false},
                      GenCase{1.0 / 8, 0.6, false},
                      GenCase{1.0 / 16, 1.0, false}));

TEST(GeneratorDensity, FillOneApproachesTheFeasibilityCeiling) {
  // At fill = 1 the generator should land within a constant factor of the
  // ceiling (horizon / L jobs); at fill = 0.1 roughly a tenth of that.
  GeneralConfig config;
  config.min_window = 1 << 7;
  config.max_window = 1 << 10;
  config.gamma = 1.0 / 8;
  config.horizon = 1 << 13;

  util::Rng rng_full(5);
  config.fill = 1.0;
  const auto full = gen_general(config, rng_full);
  const double ceiling =
      static_cast<double>(config.horizon) / 8.0;  // horizon / L
  EXPECT_GT(static_cast<double>(full.size()), 0.4 * ceiling);
  EXPECT_LE(static_cast<double>(full.size()), ceiling + 1);

  util::Rng rng_thin(5);
  config.fill = 0.1;
  const auto thin = gen_general(config, rng_thin);
  EXPECT_LT(thin.size() * 4, full.size());
}

TEST(GeneratorDensity, StarvationInstanceSaturatesSlack) {
  // The Lemma 5 instance is exactly γ-slack feasible and not (γ/2)'-slack
  // feasible beyond the construction: max_inflation == ceil(1/γ) exactly.
  for (const double gamma : {0.5, 0.25, 0.125}) {
    const auto inst = gen_starvation(32, gamma);
    EXPECT_EQ(max_inflation(inst),
              static_cast<std::int64_t>(1.0 / gamma))
        << "gamma=" << gamma;
  }
}

TEST(GeneratorDeterminism, SameSeedSameInstance) {
  GeneralConfig config;
  config.min_window = 1 << 7;
  config.max_window = 1 << 9;
  config.gamma = 1.0 / 8;
  config.horizon = 1 << 11;
  util::Rng a(99);
  util::Rng b(99);
  const auto ia = gen_general(config, a);
  const auto ib = gen_general(config, b);
  ASSERT_EQ(ia.size(), ib.size());
  for (std::size_t i = 0; i < ia.size(); ++i) {
    EXPECT_EQ(ia.jobs[i], ib.jobs[i]);
  }
}

TEST(GeneratorTrim, TrimmedGeneralInstancesStayFeasible) {
  // gen_general guarantees feasibility *of the trimmed instance* by
  // construction (it charges trimmed cores); check the actual trimmed
  // instance verifies.
  GeneralConfig config;
  config.min_window = 1 << 7;
  config.max_window = 1 << 9;
  config.gamma = 1.0 / 8;
  config.horizon = 1 << 11;
  util::Rng rng(123);
  for (int rep = 0; rep < 4; ++rep) {
    const auto inst = gen_general(config, rng);
    EXPECT_TRUE(is_slack_feasible(trimmed(inst), config.gamma));
  }
}

}  // namespace
}  // namespace crmd::workload
