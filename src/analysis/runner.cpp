#include "analysis/runner.hpp"

#include <utility>

#include "obs/run_traced.hpp"

namespace crmd::analysis {
namespace {

/// Seed stream tag of a replication's adversary: child(kJamStream) of the
/// replication's stream (replication_rng).
constexpr std::uint64_t kJamStream = 0x4A414DULL;  // "JAM"

/// Everything one replication produces before being folded into the
/// report.
struct RepOutcome {
  double jobs = 0.0;
  bool simulated = false;
  sim::SimResult result;
};

/// Generates and simulates replication `rep`, emitting into `tracer`. Pure
/// function of (rep, base seed, inputs): touches no shared state beyond
/// the (thread-safe) global profiler, so workers may run it concurrently.
RepOutcome simulate_one(int rep, std::uint64_t base_seed,
                        const InstanceGen& gen,
                        const sim::ProtocolFactory& factory,
                        const RunOptions& options, obs::Tracer* tracer) {
  RepOutcome out;
  util::Rng rep_rng = replication_rng(base_seed, rep);
  workload::Instance instance = [&] {
    const auto scope = obs::global_profiler().phase("generate");
    return gen(rep_rng);
  }();
  out.jobs = static_cast<double>(instance.size());
  if (instance.empty()) {
    return out;
  }
  sim::SimConfig config;
  config.seed = rep_rng.next_u64();
  config.faults = options.faults;
  config.feedback = options.feedback;
  config.collision_cost = options.collision_cost;
  config.fast_forward = options.fast_forward;
  config.multichannel = options.multichannel;
  config.tracer = tracer;
  std::unique_ptr<sim::Jammer> jammer;
  if (options.jammer_gen) {
    jammer = options.jammer_gen(rep_rng.child(kJamStream));
  }
  out.result =
      sim::run(std::move(instance), factory, config, std::move(jammer));
  out.simulated = true;
  return out;
}

}  // namespace

util::Rng replication_rng(std::uint64_t base_seed, int rep) {
  constexpr std::uint64_t kRepStream = 0x5245504CULL;  // "REPL"
  return util::Rng(base_seed).child(kRepStream + static_cast<unsigned>(rep));
}

ReplicationReport run_replications(const InstanceGen& gen,
                                   const sim::ProtocolFactory& factory,
                                   int reps, std::uint64_t base_seed,
                                   const RunOptions& options) {
  ReplicationReport report;
  obs::run_traced(
      reps, options.threads, options.tracer,
      [&](int rep, obs::Tracer* tracer) {
        return simulate_one(rep, base_seed, gen, factory, options, tracer);
      },
      [&](int /*rep*/, RepOutcome&& out) {
        report.jobs_per_rep.add(out.jobs);
        if (out.simulated) {
          report.outcomes.add_run(out.result);
          report.channel.merge(out.result.metrics);
        }
        ++report.replications;
      });
  return report;
}

}  // namespace crmd::analysis
