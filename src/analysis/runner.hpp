#pragma once

#include <functional>
#include <memory>

#include "analysis/outcomes.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "workload/instance.hpp"

/// \file runner.hpp
/// Replication driver shared by every experiment harness: generate an
/// instance per replication (seeded deterministically), simulate it, and
/// aggregate outcomes. Keeps all bench binaries' seed management identical
/// and reproducible.
///
/// Replications run on the library's worker pool (obs/run_traced.hpp)
/// under a *determinism contract*: the returned ReplicationReport is
/// bit-identical for every worker count. Replications are independent by
/// construction — replication r derives every random stream from
/// replication_rng(base_seed, r) — so workers may simulate them in any
/// order; determinism is restored by folding per-replication results into
/// the report strictly in replication order. The contract is enforced by
/// tests/test_runner_parallel.cpp, not by convention.

namespace crmd::analysis {

/// Builds the instance for replication `rep` (seeds derive from it).
/// With `threads > 1` the generator is invoked concurrently from worker
/// threads and must be safe to call in parallel — in practice: a pure
/// function of its Rng argument plus read-only captures.
using InstanceGen = std::function<workload::Instance(util::Rng& rng)>;

/// Builds a fresh adversary per replication; may return null (no jamming).
/// Same concurrency requirement as InstanceGen under `threads > 1`.
using JammerGen = std::function<std::unique_ptr<sim::Jammer>(util::Rng rng)>;

/// Per-sweep knobs shared by every replication; harnesses that sweep
/// channel conditions (feedback model × jamming × faults) fill one of
/// these per cell.
struct RunOptions {
  /// Builds a fresh adversary per replication; null = no jamming.
  JammerGen jammer_gen = nullptr;
  /// Fault plan applied identically to every replication (faults.hpp).
  sim::FaultPlan faults;
  /// Channel feedback semantics for every replication (channel.hpp). The
  /// default ternary model is bit-identical to the pre-model engine.
  sim::FeedbackModel feedback;
  /// Collision-cost channel physics for every replication
  /// (simulator.hpp SimConfig::collision_cost). The default 1 is the
  /// paper's channel and bit-identical to the pre-cost engine.
  int collision_cost = 1;
  /// Optional tracing session (null = off = bit-identical results).
  obs::Tracer* tracer = nullptr;
  /// Event-driven fast-forward policy for every replication
  /// (simulator.hpp SimConfig::fast_forward). The default kOff is
  /// bit-identical to the pre-FF engine.
  sim::FastForward fast_forward = sim::FastForward::kOff;
  /// Multi-channel scenario for every replication (simulator.hpp
  /// SimConfig::multichannel). The default single channel is the paper's.
  sim::MultiChannelConfig multichannel;
  /// Worker count; see run_replications. 1 = the calling thread alone.
  int threads = 1;
};

/// Everything a replication sweep accumulates.
struct ReplicationReport {
  OutcomeAggregator outcomes;
  /// Channel metrics summed over all replications.
  sim::SimMetrics channel;
  /// Number of replications executed.
  int replications = 0;
  /// Jobs per replication (for sanity reporting).
  util::RunningStats jobs_per_rep;
};

/// The stream replication `rep` of a sweep seeded `base_seed` derives
/// everything from: the generator's Rng argument, then the simulation seed
/// (its next_u64()) and the adversary's stream (a child of it). Exposed so
/// a harness can rebuild the instances a sweep simulated (E13's EDF
/// ceiling).
[[nodiscard]] util::Rng replication_rng(std::uint64_t base_seed, int rep);

/// Runs `reps` replications of (generate instance, simulate, aggregate).
/// Replication r generates from replication_rng(base_seed, r) and seeds
/// its simulation from the same stream, so reports are exactly
/// reproducible; `options` sets the channel, faults, jammer, tracer and
/// worker count shared by every replication (the defaults are the paper's
/// channel, untraced, on the calling thread). Phase timings ("generate",
/// "simulation", "aggregate") accrue to obs::global_profiler().
///
/// The replications run on obs::run_traced with `options.threads` workers
/// (<= 0 means util::resolve_threads' hardware default). Results fold in
/// replication order, so the report is bit-identical for every value (the
/// determinism contract), and a tracer's sinks observe the same stream —
/// same events, same order, same seq numbers — for every value.
[[nodiscard]] ReplicationReport run_replications(
    const InstanceGen& gen, const sim::ProtocolFactory& factory, int reps,
    std::uint64_t base_seed, const RunOptions& options = {});

}  // namespace crmd::analysis
