// Multi-channel sharding (sim/multichannel.hpp, DESIGN.md §6j): spec
// parsing, SimConfig composition rules, in-engine co-simulation
// determinism (with and without migration), the shard_of partition hash,
// and the sharded parallel paths' thread-count invariance.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/beb.hpp"
#include "core/params.hpp"
#include "core/uniform.hpp"
#include "obs/trace.hpp"
#include "sim/jammer.hpp"
#include "sim/multichannel.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace crmd::sim {
namespace {

ProtocolFactory uniform_factory() {
  core::Params params;
  params.lambda = 2;
  return core::make_uniform_factory(params);
}

std::optional<MultiChannelConfig> parse_quiet(const std::string& spec) {
  std::ostringstream diag;
  return parse_channels_spec(spec, diag);
}

// ---------------------------------------------------------------------------
// Spec parsing and config validation
// ---------------------------------------------------------------------------

TEST(ChannelsSpecParse, AcceptsCanonicalForms) {
  const auto plain = parse_quiet("8");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->channels, 8);
  EXPECT_FALSE(plain->migrate);

  const auto migrate = parse_quiet("4:migrate");
  ASSERT_TRUE(migrate.has_value());
  EXPECT_EQ(migrate->channels, 4);
  EXPECT_TRUE(migrate->migrate);
  EXPECT_EQ(migrate->migrate_after, 4);  // default threshold

  const auto tuned = parse_quiet("16:migrate:2");
  ASSERT_TRUE(tuned.has_value());
  EXPECT_EQ(tuned->channels, 16);
  EXPECT_TRUE(tuned->migrate);
  EXPECT_EQ(tuned->migrate_after, 2);
}

TEST(ChannelsSpecParse, RejectsMalformedSpecsWithOneLineError) {
  for (const char* bad : {"", "0", "-3", "257", "four", "4:teleport",
                          "4:migrate:0", "4:migrate:junk", "4:migrate:2:x"}) {
    std::ostringstream diag;
    EXPECT_FALSE(parse_channels_spec(bad, diag).has_value()) << bad;
    const std::string msg = diag.str();
    EXPECT_NE(msg.find("error: bad --channels spec"), std::string::npos)
        << bad << " -> " << msg;
    EXPECT_EQ(msg.find('\n'), msg.size() - 1) << bad << " -> " << msg;
  }
}

TEST(MultiChannelConfigTest, ValidateRejectsBadCompositions) {
  SimConfig config;
  config.multichannel.channels = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.multichannel.channels = 257;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config.multichannel.channels = 4;
  config.feedback = FeedbackModel::noisy(0.1);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.feedback = FeedbackModel::capture(0.5);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.feedback = FeedbackModel::binary_ack();
  EXPECT_NO_THROW(config.validate());

  config.feedback = FeedbackModel::unaware_no_cd();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.feedback = FeedbackModel{};

  config.multichannel.migrate_after = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(MultiChannelConfigTest, CtorRejectsJammerOnMultichannel) {
  SimConfig config;
  config.multichannel.channels = 2;
  EXPECT_THROW(Simulation(workload::gen_batch(8, 64), uniform_factory(),
                          config, make_blanket_jammer(0.1)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// shard_of partition hash
// ---------------------------------------------------------------------------

TEST(ShardOf, DeterministicInRangeAndRoughlyUniform) {
  constexpr int kShards = 8;
  std::array<int, kShards> counts{};
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const int shard = shard_of(123, key, kShards);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, kShards);
    EXPECT_EQ(shard, shard_of(123, key, kShards));  // pure function
    counts[static_cast<std::size_t>(shard)] += 1;
  }
  for (const int count : counts) {
    // 4096 keys over 8 shards: expect 512 each; allow a generous band.
    EXPECT_GT(count, 384);
    EXPECT_LT(count, 640);
  }
  // Seed-sensitivity: a different run seed produces a different partition.
  int moved = 0;
  for (std::uint64_t key = 0; key < 256; ++key) {
    moved += shard_of(123, key, kShards) != shard_of(456, key, kShards);
  }
  EXPECT_GT(moved, 0);
}

// ---------------------------------------------------------------------------
// In-engine co-simulation
// ---------------------------------------------------------------------------

std::uint64_t outcome_digest(const SimResult& r) {
  std::uint64_t h = 0;
  for (const JobResult& j : r.jobs) {
    h = h * 1099511628211ULL ^ static_cast<std::uint64_t>(j.id);
    h = h * 1099511628211ULL ^ (j.success ? 1u : 0u);
    h = h * 1099511628211ULL ^ static_cast<std::uint64_t>(j.success_slot);
    h = h * 1099511628211ULL ^ static_cast<std::uint64_t>(j.transmissions);
  }
  h = h * 1099511628211ULL ^
      static_cast<std::uint64_t>(r.metrics.slots_simulated);
  h = h * 1099511628211ULL ^
      static_cast<std::uint64_t>(r.metrics.success_slots);
  return h;
}

TEST(MultiChannelCoSim, SameSeedSameResultAndChannelsHelp) {
  const auto instance = workload::gen_batch(96, 512);
  SimConfig config;
  config.seed = 17;
  config.multichannel.channels = 4;
  const SimResult a = run(instance, uniform_factory(), config);
  const SimResult b = run(instance, uniform_factory(), config);
  EXPECT_EQ(outcome_digest(a), outcome_digest(b));

  // k channels resolve k sub-channels per time slot: success slots can
  // exceed the single-channel count for the same contention level.
  SimConfig single = config;
  single.multichannel.channels = 1;
  const SimResult one = run(instance, uniform_factory(), single);
  EXPECT_GE(a.successes(), one.successes());
  EXPECT_NE(outcome_digest(a), outcome_digest(one));
}

TEST(MultiChannelCoSim, MigrationIsDeterministicAndChangesPlacement) {
  const auto instance = workload::gen_batch(128, 256);
  SimConfig config;
  config.seed = 23;
  config.multichannel.channels = 4;
  config.multichannel.migrate = true;
  config.multichannel.migrate_after = 2;
  const SimResult a = run(instance, baselines::make_beb_factory(), config);
  const SimResult b = run(instance, baselines::make_beb_factory(), config);
  EXPECT_EQ(outcome_digest(a), outcome_digest(b));

  SimConfig frozen = config;
  frozen.multichannel.migrate = false;
  const SimResult pinned =
      run(instance, baselines::make_beb_factory(), frozen);
  // A crowded batch must actually trigger rehashes somewhere.
  EXPECT_NE(outcome_digest(a), outcome_digest(pinned));
}

// ---------------------------------------------------------------------------
// Sharded parallel path
// ---------------------------------------------------------------------------

std::uint64_t sharded_digest(const ShardedResult& r) {
  std::uint64_t h = outcome_digest(r.total);
  h = h * 1099511628211ULL ^ static_cast<std::uint64_t>(r.shards);
  for (const SimMetrics& m : r.per_shard) {
    h = h * 1099511628211ULL ^ static_cast<std::uint64_t>(m.slots_simulated);
    h = h * 1099511628211ULL ^ static_cast<std::uint64_t>(m.success_slots);
    h = h * 1099511628211ULL ^
        static_cast<std::uint64_t>(m.contention.count());
  }
  return h;
}

TEST(RunSharded, ThreadCountNeverChangesTheResult) {
  const auto instance = workload::gen_batch(192, 512);
  SimConfig config;
  config.seed = 31;
  config.multichannel.channels = 4;

  const ShardedResult serial =
      run_sharded(instance, uniform_factory(), config, 1);
  ASSERT_EQ(serial.shards, 4);
  ASSERT_EQ(serial.per_shard.size(), 4u);
  ASSERT_EQ(serial.total.jobs.size(), instance.size());

  for (const int threads : {2, 8, 0 /* hardware default */}) {
    const ShardedResult parallel =
        run_sharded(instance, uniform_factory(), config, threads);
    EXPECT_EQ(sharded_digest(parallel), sharded_digest(serial))
        << "threads=" << threads;
  }

  // Fold semantics: total jobs are indexed by original position and the
  // metrics are the shard sum.
  std::int64_t shard_success_slots = 0;
  for (const SimMetrics& m : serial.per_shard) {
    shard_success_slots += m.success_slots;
  }
  EXPECT_EQ(serial.total.metrics.success_slots, shard_success_slots);
  for (std::size_t i = 0; i < serial.total.jobs.size(); ++i) {
    EXPECT_EQ(serial.total.jobs[i].id, static_cast<JobId>(i));
  }
}

TEST(RunSharded, ShardedJammerIsDeterministicPerShard) {
  const auto instance = workload::gen_batch(64, 512);
  SimConfig config;
  config.seed = 37;
  config.multichannel.channels = 2;
  const ShardJammerGen gen = [](util::Rng) {
    return make_blanket_jammer(0.25);
  };
  const ShardedResult a =
      run_sharded(instance, uniform_factory(), config, 1, gen);
  const ShardedResult b =
      run_sharded(instance, uniform_factory(), config, 2, gen);
  EXPECT_EQ(sharded_digest(a), sharded_digest(b));
  EXPECT_GT(a.total.metrics.jammed_slots, 0);
}

TEST(RunSharded, RejectsMigration) {
  const auto instance = workload::gen_batch(8, 64);
  SimConfig config;
  config.multichannel.channels = 2;
  config.multichannel.migrate = true;
  EXPECT_THROW(run_sharded(instance, uniform_factory(), config),
               std::invalid_argument);
}

TEST(RunSharded, TracedStreamIsIdenticalForEveryThreadCount) {
  // One worker emits every shard straight into the caller's tracer; more
  // workers record each shard privately and replay in shard order. The
  // sinks must see the same stream either way.
  const auto instance = workload::gen_batch(96, 512);
  SimConfig config;
  config.seed = 43;
  config.multichannel.channels = 4;
  const auto collect = [&](int threads) {
    obs::Tracer tracer;
    const auto sink = std::make_shared<obs::CollectSink>();
    tracer.add_sink(sink);
    config.tracer = &tracer;
    const ShardedResult r =
        run_sharded(instance, uniform_factory(), config, threads);
    tracer.close();
    EXPECT_EQ(r.shards, 4);
    return sink->take();
  };
  const std::vector<obs::TraceEvent> one = collect(1);
  ASSERT_FALSE(one.empty());
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    test::expect_events_identical(one, collect(threads));
  }
}

}  // namespace
}  // namespace crmd::sim
