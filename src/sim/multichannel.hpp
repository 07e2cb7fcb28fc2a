#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

/// \file multichannel.hpp
/// Multi-channel sharding (DESIGN.md §6j). Two execution paths share one
/// hash partition:
///
///  - *In-engine co-simulation*: SimConfig::multichannel.channels > 1 makes
///    a single Simulation resolve k sub-channels per time slot (supports
///    collision-count migration; serial).
///  - *Sharded parallel runs* (this file): the instance is hash-partitioned
///    into k independent single-channel Simulations, run as the tasks of
///    the library's worker pool (util/pool.hpp), whose results are folded
///    back in shard order, so the aggregate is bit-identical for every
///    `--threads` value. Static partition only (a job cannot migrate across
///    OS threads mid-run).
///
/// Both paths place job `key` on channel `shard_of(seed, key, k)`, so the
/// serial co-simulation and a sharded run of the same migration-free
/// scenario put every job on the same channel.

namespace crmd::sim {

/// Deterministic channel/shard hash: SplitMix64 over the run seed and an
/// arbitrary 64-bit key (a job id, or (collision_count << 32) | id for
/// migration rehashes). Uniform over [0, shards); consumes no RNG stream.
[[nodiscard]] inline int shard_of(std::uint64_t seed, std::uint64_t key,
                                  int shards) noexcept {
  if (shards == 1) {
    return 0;  // the paper's channel; the engine asks for every job it adds
  }
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (key + 1));
  return static_cast<int>(util::splitmix64(state) %
                          static_cast<std::uint64_t>(shards));
}

/// One-line usage text for --channels error messages.
[[nodiscard]] std::string channels_usage();

/// Parses "K", "K:migrate", or "K:migrate:N" (K channels; optional
/// collision-count migration, rehashing after N collisions, default 4).
/// Returns nullopt (after printing a one-line error with channels_usage()
/// to `diag`) on anything malformed — CLI callers exit 2, matching the
/// --feedback pattern.
[[nodiscard]] std::optional<MultiChannelConfig> parse_channels_spec(
    const std::string& spec, std::ostream& diag);

/// Builds a fresh adversary for one shard from that shard's jammer stream;
/// may be null / return null (no jamming).
using ShardJammerGen = std::function<std::unique_ptr<Jammer>(util::Rng)>;

/// What a sharded batch run produces.
struct ShardedResult {
  /// Folded results: `total.jobs` is indexed by the *original* instance
  /// position (ids rewritten accordingly); `total.metrics` is the
  /// shard-order merge, so slots_simulated counts channel-slots summed over
  /// shards and live_peak is the largest *per-shard* live set.
  SimResult total;
  /// Each shard's own channel metrics, in shard order.
  std::vector<SimMetrics> per_shard;
  int shards = 1;
};

/// Runs `config.multichannel.channels` independent single-channel shards of
/// the instance in parallel and folds them in shard order.
///
/// Partition: normalized-instance position i goes to shard
/// shard_of(config.seed, i, k). Shard s simulates its sub-instance as an
/// ordinary single-channel run whose seed is the dedicated child stream
/// Rng(config.seed).child("SHAR" + s); `jammer_gen`, when given, builds
/// shard s's adversary from that seed's jammer stream. All shards share
/// one horizon (config.horizon, defaulting to the *full* instance's max
/// deadline).
///
/// The shards run on obs::run_traced with `threads` workers (<= 0 means
/// one per hardware thread) and fold in shard order, so the result is
/// bit-identical for every thread count (pinned in
/// tests/test_multichannel.cpp). With a tracer, the sinks see every shard's
/// events in shard order for every thread count; job ids inside the events
/// are shard-local. Rejects multichannel.migrate
/// (jobs cannot cross OS threads).
[[nodiscard]] ShardedResult run_sharded(workload::Instance instance,
                                        const ProtocolFactory& factory,
                                        SimConfig config, int threads = 1,
                                        const ShardJammerGen& jammer_gen =
                                            nullptr);

}  // namespace crmd::sim
