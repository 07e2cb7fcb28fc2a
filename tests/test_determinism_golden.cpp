// Golden-seed determinism digests. Each protocol's ReplicationReport for a
// pinned (seed, instance-generator) pair is hashed — integers directly,
// doubles by bit pattern (tests/report_digest.hpp) — and compared against
// a recorded digest. The failure mode this guards against is silent
// RNG-stream reordering: a refactor (parallel runner, seed-derivation
// change, extra draw in a protocol) that shuffles which coin flips reach
// which job would leave all statistical tests green while quietly changing
// every "reproducible" result in the repo. Here it fails loudly instead.
//
// If a digest change is *intentional* (a protocol or seed-derivation
// change that is supposed to alter results), regenerate: run this test,
// copy the "got 0x..." digests from the failure output into kGolden /
// kGoldenChannel below, and note the reason in the commit message.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "baselines/aloha.hpp"
#include "baselines/beb.hpp"
#include "baselines/energy_beb.hpp"
#include "baselines/sawtooth.hpp"
#include "core/aligned/protocol.hpp"
#include "core/nocd/protocol.hpp"
#include "core/punctual/protocol.hpp"
#include "core/uniform.hpp"
#include "report_digest.hpp"
#include "workload/generators.hpp"

namespace crmd::analysis {
namespace {

using tests::report_digest;

constexpr std::uint64_t kSeed = 20260806;

InstanceGen golden_gen() {
  return [](util::Rng& rng) {
    workload::GeneralConfig config;
    config.min_window = 1 << 8;
    config.max_window = 1 << 10;
    config.gamma = 1.0 / 8;
    config.horizon = 1 << 12;
    return workload::gen_general(config, rng);
  };
}

InstanceGen golden_aligned_gen() {
  return [](util::Rng& rng) {
    workload::AlignedConfig config;
    config.min_class = 8;
    config.max_class = 10;
    config.gamma = 1.0 / 8;
    config.horizon = 1 << 12;
    return workload::gen_aligned(config, rng);
  };
}

sim::ProtocolFactory golden_factory(const std::string& name,
                                    InstanceGen* gen) {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  *gen = golden_gen();
  if (name == "uniform") {
    return core::make_uniform_factory(params);
  }
  if (name == "aligned") {
    *gen = golden_aligned_gen();
    return core::aligned::make_aligned_factory(params);
  }
  if (name == "punctual") {
    return core::punctual::make_punctual_factory(params);
  }
  if (name == "nocd") {
    return core::nocd::make_nocd_factory(params, /*robust=*/false);
  }
  if (name == "nocd_robust") {
    return core::nocd::make_nocd_factory(params, /*robust=*/true);
  }
  if (name == "aloha") {
    return baselines::make_aloha_window_factory(4.0);
  }
  if (name == "beb") {
    return baselines::make_beb_factory();
  }
  if (name == "energy_beb") {
    return baselines::make_energy_beb_factory(params);
  }
  if (name == "energy_beb_cs") {
    // Carrier-sampling variant: exercises the slots_listening path (one
    // awake sample after each failure on listener-visible channels).
    params.energy_listen_after_failure = true;
    return baselines::make_energy_beb_factory(params);
  }
  return baselines::make_sawtooth_factory();
}

struct Golden {
  const char* name;
  std::uint64_t expected;
};

// Pinned digests for (kSeed, generator) per protocol. Regenerate only for
// intentional behavior changes — see the file comment.
constexpr Golden kGolden[] = {
    {"uniform", 0xae737dffa1b5093bULL},
    {"aligned", 0x62650eb9b68e28feULL},
    {"punctual", 0x11281381ef74d150ULL},
    {"nocd", 0x50dabc885b81f78eULL},
    {"nocd_robust", 0x6c7b9ea8671ee578ULL},
    {"aloha", 0x12dcf80c482edf41ULL},
    {"beb", 0x901e13c705aed951ULL},
    {"sawtooth", 0x2c19ba5a0ea3928dULL},
};

std::uint64_t run_digest(const std::string& name,
                         const RunOptions& options = {}) {
  InstanceGen gen;
  const sim::ProtocolFactory factory = golden_factory(name, &gen);
  return report_digest(run_replications(gen, factory, /*reps=*/3, kSeed,
                                        options));
}

TEST(DeterminismGolden, PerProtocolOutcomeDigests) {
  for (const Golden& g : kGolden) {
    const std::uint64_t got = run_digest(g.name);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, g.expected)
        << "golden outcome digest mismatch for '" << g.name << "': got "
        << buf
        << "\nAn RNG stream or aggregation-order change reached this "
           "protocol's results. If the change is intentional, update "
           "kGolden in tests/test_determinism_golden.cpp with the digest "
           "above; otherwise you have a determinism regression.";
  }
}

// The digests must also be stable under the parallel engine — same pinned
// values, any worker count (belt and braces on top of
// test_runner_parallel's field-by-field comparison).
TEST(DeterminismGolden, DigestsAreThreadCountInvariant) {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  const sim::ProtocolFactory factories[] = {
      core::punctual::make_punctual_factory(params),
      core::nocd::make_nocd_factory(params, /*robust=*/true),
  };
  for (const auto& factory : factories) {
    const auto serial = report_digest(
        run_replications(golden_gen(), factory, 3, kSeed));
    for (const int threads : {2, 8}) {
      EXPECT_EQ(report_digest(run_replications(golden_gen(), factory, 3,
                                               kSeed, {.threads = threads})),
                serial)
          << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Channel-physics variants (DESIGN.md §6i)
// ---------------------------------------------------------------------------

struct GoldenChannel {
  const char* name;
  double alpha;        // capture strength; < 0 = ternary model
  int collision_cost;  // SimConfig::collision_cost
  std::uint64_t expected;
};

// Pinned digests for the capture and collision-cost channels, one
// collision-heavy protocol from each family. Regenerate exactly like
// kGolden: run, copy the "got 0x..." value, note the reason.
constexpr GoldenChannel kGoldenChannel[] = {
    {"uniform", 0.5, 1, 0xe0ded762d1efc3d7ULL},
    {"punctual", 0.5, 1, 0x2649a801c3d1ac0aULL},
    {"nocd_robust", 0.5, 1, 0x81722a2866eb1f83ULL},
    {"beb", 0.5, 1, 0x8fba8f3500eb0e9dULL},
    {"uniform", -1.0, 3, 0x81ea9f9e9a00cbeaULL},
    {"punctual", -1.0, 3, 0x37d4cb3cb5b8e5b4ULL},
    {"nocd_robust", -1.0, 3, 0x4552c5201e56cb35ULL},
    {"beb", -1.0, 3, 0xe500efd66a7f5a70ULL},
};

RunOptions channel_options(const GoldenChannel& g, int threads = 1) {
  RunOptions options;
  if (g.alpha >= 0.0) {
    options.feedback = sim::FeedbackModel::capture(g.alpha);
  }
  options.collision_cost = g.collision_cost;
  options.threads = threads;
  return options;
}

TEST(DeterminismGolden, ChannelPhysicsDigests) {
  for (const GoldenChannel& g : kGoldenChannel) {
    const std::uint64_t got = run_digest(g.name, channel_options(g));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, g.expected)
        << "golden channel-physics digest mismatch for '" << g.name
        << "' (alpha=" << g.alpha << ", cost=" << g.collision_cost
        << "): got " << buf
        << "\nIf the change is intentional, update kGoldenChannel in "
           "tests/test_determinism_golden.cpp with the digest above.";
  }
}

TEST(DeterminismGolden, ChannelPhysicsDigestsAreThreadCountInvariant) {
  for (const GoldenChannel& g : kGoldenChannel) {
    const std::uint64_t serial = run_digest(g.name, channel_options(g));
    for (const int threads : {2, 8}) {
      EXPECT_EQ(run_digest(g.name, channel_options(g, threads)), serial)
          << g.name << " alpha=" << g.alpha << " cost=" << g.collision_cost
          << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Mega-scale engine variants (DESIGN.md §6j)
// ---------------------------------------------------------------------------

struct GoldenEngine {
  const char* name;
  sim::FastForward fast_forward;
  int channels;
  std::uint64_t expected;
};

// Pinned digests for the fast-forward and multi-channel engines. uniform
// and beb carry dormancy promises, so kOn actually skips slots for them;
// punctual and sawtooth inherit the no-promise default, so their kOn rows
// are pinned to the SAME values as kGolden — drift there means
// fast-forward stopped being a provable no-op for promise-free protocols.
// Regenerate exactly like kGolden: run, copy the "got 0x..." value, note
// the reason in the commit message.
constexpr GoldenEngine kGoldenEngine[] = {
    {"uniform", sim::FastForward::kOn, 1, 0xb96f71a3a8d6bb1dULL},
    {"beb", sim::FastForward::kOn, 1, 0xbf6a59c4fe13b4a2ULL},
    {"punctual", sim::FastForward::kOn, 1,
     0x11281381ef74d150ULL},  // == kGolden: no promise, FF no-op
    {"sawtooth", sim::FastForward::kOn, 1,
     0x2c19ba5a0ea3928dULL},  // == kGolden: no promise, FF no-op
    {"uniform", sim::FastForward::kOff, 4, 0x02db7cd733b94fb1ULL},
    {"beb", sim::FastForward::kOff, 4, 0x3e0c703111d4dba1ULL},
};

RunOptions engine_options(const GoldenEngine& g, int threads = 1) {
  RunOptions options;
  options.fast_forward = g.fast_forward;
  options.multichannel.channels = g.channels;
  options.threads = threads;
  return options;
}

TEST(DeterminismGolden, EngineVariantDigests) {
  for (const GoldenEngine& g : kGoldenEngine) {
    const std::uint64_t got = run_digest(g.name, engine_options(g));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, g.expected)
        << "golden engine-variant digest mismatch for '" << g.name
        << "' (ff=" << static_cast<int>(g.fast_forward)
        << ", channels=" << g.channels << "): got " << buf
        << "\nIf the change is intentional, update kGoldenEngine in "
           "tests/test_determinism_golden.cpp with the digest above.";
    if (g.fast_forward == sim::FastForward::kOn) {
      // kValidate re-simulates every skipped slot and throws on a broken
      // dormancy promise; its digest must match kOn bit for bit.
      GoldenEngine validating = g;
      validating.fast_forward = sim::FastForward::kValidate;
      EXPECT_EQ(run_digest(g.name, engine_options(validating)), got)
          << g.name << ": kValidate digest diverged from kOn";
    }
  }
}

TEST(DeterminismGolden, EngineVariantDigestsAreThreadCountInvariant) {
  for (const GoldenEngine& g : kGoldenEngine) {
    const std::uint64_t serial = run_digest(g.name, engine_options(g));
    for (const int threads : {2, 8}) {
      EXPECT_EQ(run_digest(g.name, engine_options(g, threads)), serial)
          << g.name << " ff=" << static_cast<int>(g.fast_forward)
          << " channels=" << g.channels << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Radio-energy accounting (DESIGN.md §6k)
// ---------------------------------------------------------------------------

using tests::energy_digest;

struct GoldenEnergy {
  const char* name;
  bool binary_ack;  // feedback model: binary_ack instead of ternary
  std::uint64_t expected;
};

// Pinned energy digests (slots_awake/listening/transmitting,
// live/dark job-slots, per-job awake stats) for every protocol, plus
// binary_ack variants for the two protocols whose radio schedule depends
// on the feedback model (nocd sleeps only under binary_ack; energy_beb
// skips carrier samples there). These counters are deliberately outside
// report_digest's frozen traversal, so this is the family that would catch
// a silent change to the §6k energy meter. Regenerate exactly like
// kGolden: run, copy the "got 0x..." value, note the reason.
constexpr GoldenEnergy kGoldenEnergy[] = {
    {"uniform", false, 0xed99610f1af0b52bULL},
    {"aligned", false, 0xbf488948f09a2e54ULL},
    {"punctual", false, 0x5456334c6ae74eafULL},
    {"nocd", false, 0xf983ee502fc72695ULL},
    {"nocd_robust", false, 0x9d8332a924cdb962ULL},
    {"beb", false, 0xaf5f3794d37c26fdULL},
    {"energy_beb", false, 0x86dbfc167256a8daULL},
    {"sawtooth", false, 0x217b62e7f46b7192ULL},
    {"aloha", false, 0x019419b2d2c7c38fULL},
    // nocd's radio schedule depends on the feedback model (it sleeps only
    // under binary_ack, where success-drain inference has nothing to hear).
    {"nocd", true, 0xecb5b5875867a651ULL},
    // With the carrier sample off (the default), energy_beb's schedule is
    // feedback-blind: the binary_ack digest EQUALS the ternary one above.
    // Divergence here means the default protocol started consulting
    // listener feedback.
    {"energy_beb", true, 0x86dbfc167256a8daULL},
    // Carrier-sampling variant: ternary exercises slots_listening; under
    // binary_ack the sample is suppressed (listeners are deaf), collapsing
    // back to the plain energy_beb digest.
    {"energy_beb_cs", false, 0x0c50eb89d99da468ULL},
    {"energy_beb_cs", true, 0x86dbfc167256a8daULL},
};

RunOptions energy_options(const GoldenEnergy& g, int threads = 1,
                          sim::FastForward ff = sim::FastForward::kOff) {
  RunOptions options;
  if (g.binary_ack) {
    options.feedback = sim::FeedbackModel::binary_ack();
  }
  options.fast_forward = ff;
  options.threads = threads;
  return options;
}

std::uint64_t run_energy_digest(const std::string& name,
                                const RunOptions& options) {
  InstanceGen gen;
  const sim::ProtocolFactory factory = golden_factory(name, &gen);
  return energy_digest(
      run_replications(gen, factory, /*reps=*/3, kSeed, options));
}

TEST(DeterminismGolden, EnergyDigests) {
  for (const GoldenEnergy& g : kGoldenEnergy) {
    const std::uint64_t got = run_energy_digest(g.name, energy_options(g));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, g.expected)
        << "golden energy digest mismatch for '" << g.name
        << "' (binary_ack=" << g.binary_ack << "): got " << buf
        << "\nA radio-state accounting or RNG-stream change reached this "
           "protocol's energy counters. If the change is intentional, "
           "update kGoldenEnergy in tests/test_determinism_golden.cpp with "
           "the digest above.";
  }
}

// The energy meter must not notice HOW the engine covered the slots: a
// fast-forwarded dormant span is exactly a sleep span, so skipping it
// batch-accounts the same zero awake job-slots the slot-by-slot engine
// tallies. Pinned against the kOff digests above, for the promise-carrying
// protocols where kOn actually skips.
TEST(DeterminismGolden, EnergyDigestsAreFastForwardInvariant) {
  for (const GoldenEnergy& g : kGoldenEnergy) {
    const std::uint64_t off = run_energy_digest(g.name, energy_options(g));
    for (const auto ff :
         {sim::FastForward::kOn, sim::FastForward::kValidate}) {
      EXPECT_EQ(run_energy_digest(g.name, energy_options(g, 1, ff)), off)
          << g.name << " (binary_ack=" << g.binary_ack
          << "): energy digest diverged under fast-forward mode "
          << static_cast<int>(ff);
    }
  }
}

TEST(DeterminismGolden, EnergyDigestsAreThreadCountInvariant) {
  for (const GoldenEnergy& g : kGoldenEnergy) {
    const std::uint64_t serial =
        run_energy_digest(g.name, energy_options(g));
    for (const int threads : {2, 8}) {
      EXPECT_EQ(run_energy_digest(g.name, energy_options(g, threads)),
                serial)
          << g.name << " binary_ack=" << g.binary_ack
          << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace crmd::analysis
