#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "layers.hpp"
#include "sim/metrics.hpp"

/// \file workloads.hpp
/// The benchmark's four workloads. Each one is a fixed amount of simulated
/// work (a *pass*: a fixed list of runs whose inputs derive from the
/// workload seed) that crmd_perfbench repeats in a closed loop. A pass can
/// run in four modes; every mode must produce the same digest.

namespace perfbench {

/// Seed whose pass digests are pinned (see pinned_digest).
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Every mode but kParallel runs on one worker. The end-to-end passes are
/// single-worker because a multi-worker pass waits for whichever of its
/// CPUs another tenant slows, which on a shared host made the pass time
/// swing by 20% from run to run.
enum class Mode {
  kPlain,      ///< tracing off: the end-to-end measurement
  kDecorated,  ///< forwarding decorators and spans (the per-layer run)
  kObs,        ///< an obs::Tracer with a timed Timeline sink attached
  kParallel,   ///< replication workloads on kParallelWorkers workers
};

/// Workers of a kParallel pass: at most nproc, with room left on a shared
/// 4-core host. The traced run compares it with the one-worker pass.
inline constexpr int kParallelWorkers = 2;

/// What one pass produced.
struct PassResult {
  double wall_s = 0.0;
  /// Runs that completed: Simulations, streams or replications.
  std::int64_t runs = 0;
  std::int64_t failed_runs = 0;
  std::string failure;  ///< first failure, if any
  Digests digest;       ///< chained over the pass's runs or sweeps
  std::int64_t jobs = 0;
  std::int64_t delivered = 0;
  crmd::sim::SimMetrics metrics;  ///< merged over the pass
  /// Live job-slots of the runs driven by each protocol family.
  std::array<std::int64_t, kFamilies> family_job_slots{};
};

/// Layer timings gathered by decorated and obs passes (summed over passes).
struct LayerProbe {
  SpanLog spans;
  /// Wall time of the decorated passes, and the part of it inside the
  /// layer phases: for serial workloads the run spans (generate +
  /// construct + steps + finish), for replication workloads the runner's
  /// own generate, simulation and aggregate phase timers.
  std::int64_t pass_ns = 0;
  std::int64_t layer_ns = 0;
  // Serial workloads: one span each per run.
  std::int64_t runs = 0;
  std::int64_t gen_ns = 0;
  std::int64_t ctor_ns = 0;
  std::int64_t steps_ns = 0;
  std::int64_t finish_ns = 0;
  std::vector<std::int64_t> step_ns;  ///< every Simulation::step() call
  CallStats arrivals;  ///< every ArrivalProcess::next call
  // Replication workloads.
  std::int64_t sweep_ns = 0;  ///< summed run_replications wall
  std::int64_t reps = 0;
  std::int64_t rep_gen_ns = 0;
  std::int64_t rep_construct_ns = 0;
  std::int64_t rep_constructs = 0;
  std::int64_t sim_ns = 0;  ///< the runner's own "simulation" phase timer
  std::int64_t jobs = 0;
  // Obs passes.
  std::uint64_t events = 0;
  std::uint64_t dropped_events = 0;
  CallStats sink;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first simulated slot: registry lookups, then
  /// the pass's first run (or replication) through the public entry point
  /// until the engine first asks a protocol about a slot, which covers
  /// instance or arrival set-up, Simulation construction and activation.
  /// That run is stopped there. Returns the wall time in seconds
  /// (setup_s), leaving out the stopped run's destruction. May be called
  /// repeatedly.
  virtual double setup() = 0;

  /// Runs the fixed pass. `probe` collects layer timings in kDecorated and
  /// kObs modes and may be null otherwise.
  virtual PassResult pass(Mode mode, LayerProbe* probe) = 0;

  /// True for workloads driven through analysis::run_replications.
  [[nodiscard]] virtual bool replicated() const = 0;

  /// Whether protocols are built inside Simulation::step (streaming).
  [[nodiscard]] virtual bool builds_in_step() const { return false; }
};

[[nodiscard]] std::vector<std::string> workload_names();

/// Null for unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// The pinned pass digest (Digests::pinned) for kDefaultSeed; nullopt for
/// unknown names.
[[nodiscard]] std::optional<std::uint64_t> pinned_digest(
    const std::string& name);

}  // namespace perfbench
