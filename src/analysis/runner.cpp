#include "analysis/runner.hpp"

#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/pool.hpp"

namespace crmd::analysis {
namespace {

/// Seed stream tags: replication r derives its streams as
/// master.child(kRepStream + r), whichever worker simulates it — the
/// determinism contract hangs on every worker count consuming identical
/// streams.
constexpr std::uint64_t kRepStream = 0x5245504CULL;  // "REPL"
constexpr std::uint64_t kJamStream = 0x4A414DULL;    // "JAM"

/// Everything one replication produces before being folded into the
/// report. Folding happens strictly in replication order, so the aggregate
/// is bit-identical for every worker count.
struct RepOutcome {
  double jobs = 0.0;
  bool simulated = false;
  sim::SimResult result;
  /// The replication's trace events when it recorded them privately
  /// (obs::EventRecorder); replayed into the caller's tracer at fold time.
  std::vector<obs::TraceEvent> events;
};

/// Generates and simulates replication `rep`. Pure function of
/// (rep, master-seed, inputs): touches no shared state beyond the
/// (thread-safe) global profiler and, with one worker, the caller's tracer,
/// so workers may run it concurrently.
RepOutcome simulate_one(int rep, const util::Rng& master,
                        const InstanceGen& gen,
                        const sim::ProtocolFactory& factory,
                        const RunOptions& options, int workers) {
  obs::RunProfiler& prof = obs::global_profiler();
  RepOutcome out;
  util::Rng rep_rng =
      master.child(kRepStream + static_cast<unsigned>(rep));
  workload::Instance instance = [&] {
    const auto scope = prof.phase("generate");
    return gen(rep_rng);
  }();
  out.jobs = static_cast<double>(instance.size());
  if (instance.empty()) {
    return out;
  }
  obs::EventRecorder recorder(options.tracer, workers);
  sim::SimConfig config;
  config.seed = rep_rng.next_u64();
  config.faults = options.faults;
  config.feedback = options.feedback;
  config.collision_cost = options.collision_cost;
  config.fast_forward = options.fast_forward;
  config.multichannel = options.multichannel;
  config.tracer = recorder.tracer();
  std::unique_ptr<sim::Jammer> jammer;
  if (options.jammer_gen) {
    jammer = options.jammer_gen(rep_rng.child(kJamStream));
  }
  out.result = [&] {
    const auto scope = prof.phase("simulation");
    return sim::run(std::move(instance), factory, config, std::move(jammer));
  }();
  out.simulated = true;
  out.events = recorder.take();
  return out;
}

/// Folds one replication into the report. Must be called in replication
/// order.
void fold(ReplicationReport& report, RepOutcome&& out, obs::Tracer* tracer) {
  report.jobs_per_rep.add(out.jobs);
  if (out.simulated) {
    const auto scope = obs::global_profiler().phase("aggregate");
    report.outcomes.add_run(out.result);
    report.channel.merge(out.result.metrics);
    obs::replay(tracer, out.events);
  }
  ++report.replications;
}

}  // namespace

ReplicationReport run_replications(const InstanceGen& gen,
                                   const sim::ProtocolFactory& factory,
                                   int reps, std::uint64_t base_seed,
                                   const JammerGen& jammer_gen,
                                   const sim::FaultPlan& faults,
                                   obs::Tracer* tracer, int threads) {
  RunOptions options;
  options.jammer_gen = jammer_gen;
  options.faults = faults;
  options.tracer = tracer;
  options.threads = threads;
  return run_replications(gen, factory, reps, base_seed, options);
}

ReplicationReport run_replications(const InstanceGen& gen,
                                   const sim::ProtocolFactory& factory,
                                   int reps, std::uint64_t base_seed,
                                   const RunOptions& options) {
  ReplicationReport report;
  const util::Rng master(base_seed);
  const int workers = util::pool_workers(reps, options.threads);
  util::run_ordered(
      reps, options.threads,
      [&](int rep) {
        return simulate_one(rep, master, gen, factory, options, workers);
      },
      [&](int /*rep*/, RepOutcome&& out) {
        fold(report, std::move(out), options.tracer);
      });
  return report;
}

}  // namespace crmd::analysis
