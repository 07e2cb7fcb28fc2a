#include "sim/multichannel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/arrivals.hpp"

namespace crmd::sim {
namespace {

/// Seed stream tags. Shard s derives every stream from
/// Rng(seed).child(kShardStream + s); its jammer (when any) from that
/// child's kJamStream — mirroring the replication driver's layout so shard
/// runs are as replayable as replications.
constexpr std::uint64_t kShardStream = 0x53484152ULL;  // "SHAR"
constexpr std::uint64_t kJamStream = 0x4A414DULL;      // "JAM"

int resolve_workers(int requested, int shards) {
  if (requested <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::max(1, std::min(requested, shards));
}

/// One shard's parked output, folded in shard order after the join.
struct ShardOutcome {
  SimResult result;
  std::vector<obs::TraceEvent> events;
};

/// Runs `shard_fn(s)` for every shard on `workers` threads (atomic claim,
/// any completion order), parking outcomes; the caller folds serially.
void run_pool(int shards, int workers,
              const std::function<void(int)>& shard_fn) {
  std::atomic<int> next{0};
  std::mutex err_mu;
  std::exception_ptr error;
  const auto work = [&] {
    for (;;) {
      const int s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards) {
        return;
      }
      try {
        shard_fn(s);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!error) {
          error = std::current_exception();
        }
        next.store(shards, std::memory_order_relaxed);  // stop the pool
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int i = 1; i < workers; ++i) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& t : pool) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

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

void replay_events(obs::Tracer* tracer,
                   const std::vector<obs::TraceEvent>& events) {
  for (const obs::TraceEvent& ev : events) {
    CRMD_TRACE(tracer, ev.kind, ev.slot, ev.job, ev.a, ev.b, ev.x, ev.label);
  }
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

  obs::Tracer* tracer = config.tracer;
  std::vector<ShardOutcome> outcomes(ks);
  run_pool(k, resolve_workers(threads, k), [&](int shard) {
    const auto s = static_cast<std::size_t>(shard);
    std::unique_ptr<obs::Tracer> local_tracer;
    std::shared_ptr<obs::CollectSink> collect;
    if (tracer != nullptr) {
      local_tracer = std::make_unique<obs::Tracer>();
      collect = std::make_shared<obs::CollectSink>();
      local_tracer->add_sink(collect);
    }
    const SimConfig cfg =
        shard_config(config, shard, horizon, local_tracer.get());
    std::unique_ptr<Jammer> jammer;
    if (jammer_gen) {
      jammer = jammer_gen(util::Rng(cfg.seed).child(kJamStream));
    }
    outcomes[s].result =
        run(std::move(parts[s]), factory, cfg, std::move(jammer));
    if (local_tracer) {
      local_tracer->close();
      outcomes[s].events = collect->events();
    }
  });

  // Serial fold in shard order: bit-identical for every worker count.
  ShardedResult out;
  out.shards = k;
  out.total.jobs.resize(instance.jobs.size());
  out.per_shard.reserve(ks);
  for (std::size_t s = 0; s < ks; ++s) {
    SimResult& r = outcomes[s].result;
    for (JobResult& job : r.jobs) {
      const JobId original = orig[s][job.id];
      job.id = original;
      out.total.jobs[original] = job;
    }
    out.total.metrics.merge(r.metrics);
    out.per_shard.push_back(r.metrics);
    replay_events(tracer, outcomes[s].events);
  }
  obs::global_profiler().note_shards(k);
  return out;
}

ShardedStreamResult run_sharded_stream(const ShardArrivalGen& make_process,
                                       const ProtocolFactory& factory,
                                       SimConfig config, int threads) {
  config.validate();
  if (!make_process) {
    throw std::invalid_argument(
        "run_sharded_stream: arrival generator must be non-null");
  }
  if (config.multichannel.migrate) {
    throw std::invalid_argument(
        "run_sharded_stream: migration is not supported on the sharded "
        "path");
  }
  const int k = config.multichannel.channels;
  const auto ks = static_cast<std::size_t>(k);
  obs::Tracer* tracer = config.tracer;
  std::vector<ShardOutcome> outcomes(ks);
  run_pool(k, resolve_workers(threads, k), [&](int shard) {
    const auto s = static_cast<std::size_t>(shard);
    std::unique_ptr<obs::Tracer> local_tracer;
    std::shared_ptr<obs::CollectSink> collect;
    if (tracer != nullptr) {
      local_tracer = std::make_unique<obs::Tracer>();
      collect = std::make_shared<obs::CollectSink>();
      local_tracer->add_sink(collect);
    }
    SimConfig cfg =
        shard_config(config, shard, config.horizon, local_tracer.get());
    cfg.keep_job_results = false;  // bounded memory is the point
    outcomes[s].result = run_stream(make_process(shard), factory, cfg);
    if (local_tracer) {
      local_tracer->close();
      outcomes[s].events = collect->events();
    }
  });

  ShardedStreamResult out;
  out.shards = k;
  out.per_shard.reserve(ks);
  for (std::size_t s = 0; s < ks; ++s) {
    out.metrics.merge(outcomes[s].result.metrics);
    out.stream.merge(outcomes[s].result.stream);
    out.per_shard.push_back(outcomes[s].result.metrics);
    replay_events(tracer, outcomes[s].events);
  }
  obs::global_profiler().note_shards(k);
  return out;
}

}  // namespace crmd::sim
