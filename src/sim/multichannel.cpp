#include "sim/multichannel.hpp"

#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/run_traced.hpp"

namespace crmd::sim {
namespace {

/// Seed stream tags. Shard s derives every stream from
/// Rng(seed).child(kShardStream + s); its jammer (when any) from that
/// child's kJamStream — mirroring the replication driver's layout so shard
/// runs are as replayable as replications.
constexpr std::uint64_t kShardStream = 0x53484152ULL;  // "SHAR"
constexpr std::uint64_t kJamStream = 0x4A414DULL;      // "JAM"

/// Per-shard single-channel config with the dedicated shard seed stream.
SimConfig shard_config(const SimConfig& config, int shard, Slot horizon,
                       obs::Tracer* tracer) {
  SimConfig cfg = config;
  cfg.multichannel = MultiChannelConfig{};  // each shard is one channel
  cfg.horizon = horizon;
  cfg.seed = util::Rng(config.seed)
                 .child(kShardStream + static_cast<unsigned>(shard))
                 .seed();
  cfg.tracer = tracer;
  return cfg;
}

}  // namespace

std::string channels_usage() {
  return "expected K | K:migrate | K:migrate:N (K in [1, 256], N >= 1)";
}

std::optional<MultiChannelConfig> parse_channels_spec(const std::string& spec,
                                                      std::ostream& diag) {
  const auto fail = [&]() -> std::optional<MultiChannelConfig> {
    diag << "error: bad --channels spec '" << spec
         << "': " << channels_usage() << '\n';
    return std::nullopt;
  };
  MultiChannelConfig out;
  const auto first_colon = spec.find(':');
  const std::string head = spec.substr(0, first_colon);
  try {
    std::size_t used = 0;
    out.channels = std::stoi(head, &used);
    if (used != head.size()) {
      return fail();
    }
  } catch (const std::exception&) {
    return fail();
  }
  if (out.channels < 1 || out.channels > 256) {
    return fail();
  }
  if (first_colon == std::string::npos) {
    return out;
  }
  const std::string rest = spec.substr(first_colon + 1);
  const auto second_colon = rest.find(':');
  if (rest.substr(0, second_colon) != "migrate") {
    return fail();
  }
  out.migrate = true;
  if (second_colon == std::string::npos) {
    return out;
  }
  const std::string count = rest.substr(second_colon + 1);
  try {
    std::size_t used = 0;
    out.migrate_after = std::stoi(count, &used);
    if (used != count.size()) {
      return fail();
    }
  } catch (const std::exception&) {
    return fail();
  }
  if (out.migrate_after < 1) {
    return fail();
  }
  return out;
}

ShardedResult run_sharded(workload::Instance instance,
                          const ProtocolFactory& factory, SimConfig config,
                          int threads, const ShardJammerGen& jammer_gen) {
  config.validate();
  if (config.multichannel.migrate) {
    throw std::invalid_argument(
        "run_sharded: collision-count migration requires the in-engine "
        "co-simulation path (jobs cannot cross OS threads mid-run); unset "
        "multichannel.migrate or drop to SimConfig::multichannel");
  }
  instance.normalize();
  instance.validate();
  const int k = config.multichannel.channels;
  const Slot horizon =
      config.horizon > 0 ? config.horizon : instance.max_deadline();

  // Static hash partition over normalized positions — the same placement
  // the in-engine co-simulation uses for its (migration-free) jobs.
  const auto ks = static_cast<std::size_t>(k);
  std::vector<workload::Instance> parts(ks);
  std::vector<std::vector<JobId>> orig(ks);
  for (std::size_t i = 0; i < instance.jobs.size(); ++i) {
    const auto s = static_cast<std::size_t>(
        shard_of(config.seed, static_cast<JobId>(i), k));
    parts[s].jobs.push_back(instance.jobs[i]);
    orig[s].push_back(static_cast<JobId>(i));
  }

  // Fold in shard order: bit-identical for every worker count.
  ShardedResult out;
  out.shards = k;
  out.total.jobs.resize(instance.jobs.size());
  out.per_shard.reserve(ks);
  obs::run_traced(
      k, threads, config.tracer,
      [&](int shard, obs::Tracer* tracer) {
        const SimConfig cfg = shard_config(config, shard, horizon, tracer);
        std::unique_ptr<Jammer> jammer;
        if (jammer_gen) {
          jammer = jammer_gen(util::Rng(cfg.seed).child(kJamStream));
        }
        return run(std::move(parts[static_cast<std::size_t>(shard)]), factory,
                   cfg, std::move(jammer));
      },
      [&](int shard, SimResult&& result) {
        const auto s = static_cast<std::size_t>(shard);
        for (JobResult& job : result.jobs) {
          const JobId original = orig[s][job.id];
          job.id = original;
          out.total.jobs[original] = job;
        }
        out.total.metrics.merge(result.metrics);
        out.per_shard.push_back(result.metrics);
      });
  obs::global_profiler().note_shards(k);
  return out;
}

}  // namespace crmd::sim
