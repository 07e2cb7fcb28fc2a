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
/// Replications run on the library's worker pool (util/pool.hpp) under a
/// *determinism contract*: the returned ReplicationReport is bit-identical
/// for every worker count. Replications are independent by construction —
/// replication r derives every random stream from
/// `Rng(base_seed).child(REPL + r)` — so workers may simulate them in any
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

/// Per-sweep knobs shared by every replication. Collects what used to be
/// trailing defaulted arguments of run_replications; harnesses that sweep
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

/// Runs `reps` replications of (generate instance, simulate, aggregate).
/// Replication r uses the deterministic seed child(base_seed, r) for both
/// generation and simulation, so reports are exactly reproducible. The
/// optional `faults` plan applies identically to every replication (default:
/// none — a provable no-op, see faults.hpp). When `tracer` is non-null
/// every simulated run streams obs events into it (null = tracing off =
/// bit-identical results, see obs/trace.hpp). Phase timings ("generate",
/// "simulation", "aggregate") accrue to obs::global_profiler().
///
/// `threads` selects the worker count of util::run_ordered: 1 (the default)
/// runs every replication on the calling thread; N > 1 simulates them on N
/// workers; <= 0 means util::resolve_threads' hardware default. Results
/// fold in replication order, so the report is bit-identical for every
/// value (the determinism contract). With a tracer, sinks observe the same
/// stream — same events, same order, same seq numbers — for every value:
/// one worker emits straight into `tracer`, several record each
/// replication's events and replay them at fold time (obs::EventRecorder).
[[nodiscard]] ReplicationReport run_replications(
    const InstanceGen& gen, const sim::ProtocolFactory& factory, int reps,
    std::uint64_t base_seed, const JammerGen& jammer_gen = nullptr,
    const sim::FaultPlan& faults = {}, obs::Tracer* tracer = nullptr,
    int threads = 1);

/// Options-struct form: identical semantics, plus the channel feedback
/// model. The positional overload forwards here with default (ternary)
/// feedback, so both produce bit-identical reports for the same knobs.
[[nodiscard]] ReplicationReport run_replications(
    const InstanceGen& gen, const sim::ProtocolFactory& factory, int reps,
    std::uint64_t base_seed, const RunOptions& options);

}  // namespace crmd::analysis
