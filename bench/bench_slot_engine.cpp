// Slot-engine throughput harness: single-replication slots/sec across job
// counts and protocol families. This is the regression gate for the
// data-oriented engine rebuild (DESIGN.md §6e) — unlike the experiment
// harnesses it reproduces no paper claim; it exists so BENCH_*.json keeps a
// perf trajectory and `tools/check_perf.py` can flag slowdowns against
// `bench/baselines/slot_engine.json`.
//
// Sweep points are chosen to hit the engine's distinct cost regimes:
//   burst/uniform    — n jobs live at once; the raw decision-loop rate.
//   burst/ack-aloha  — ACK-only feedback (no collision detection) with many
//                      transmitters per slot; stresses the per-listener
//                      "did I transmit" lookup.
//   stagger/faults   — thousands of jobs but only a handful live per slot,
//                      with a light fault plan; stresses the per-slot
//                      scratch-clearing path (dark flags) whose cost must
//                      scale with live jobs, not total jobs.
//
// Timing covers simulation construction + run, so protocol allocation
// (the arena path) is part of what is measured. Wall-clock numbers appear
// in the table (this harness is about time); use --reps to average.
// --fast-forward applies to every scenario (faults keep stagger/faults slot
// by slot regardless); the default off keeps the rows comparable with
// bench/baselines/slot_engine.json.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/aloha.hpp"
#include "bench_common.hpp"
#include "core/params.hpp"
#include "core/uniform.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

namespace {

using namespace crmd;

struct Point {
  std::string scenario;
  std::int64_t jobs = 0;
  int reps = 0;
  std::int64_t slots = 0;
  double wall_ms = 0.0;
};

/// Runs one (scenario, jobs) point `reps` times and accumulates simulated
/// slots and wall time. The build step is inside the timed region on
/// purpose: per-job protocol allocation is engine cost.
template <typename MakeSim>
Point measure(const std::string& scenario, std::int64_t jobs, int reps,
              const MakeSim& make_sim) {
  Point p;
  p.scenario = scenario;
  p.jobs = jobs;
  p.reps = reps;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    sim::Simulation simulation = make_sim(static_cast<std::uint64_t>(rep));
    const sim::SimResult result = simulation.finish();
    const auto stop = std::chrono::steady_clock::now();
    p.slots += result.metrics.slots_simulated;
    p.wall_ms +=
        std::chrono::duration<double, std::milli>(stop - start).count();
  }
  return p;
}

double slots_per_sec(const Point& p) {
  return p.wall_ms > 0.0 ? static_cast<double>(p.slots) / (p.wall_ms / 1e3)
                         : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  // reps here are timing repetitions per sweep point, not replications.
  const bench::CommonArgs common = bench::parse_common(args, /*reps=*/4);
  auto trace = bench::make_trace_session(common);

  std::vector<std::int64_t> job_counts = {256, 1024, 8192};
  if (common.quick) {
    job_counts = {256, 1024};
  }

  core::Params params;
  params.lambda = 2;
  const auto uniform = core::make_uniform_factory(params);

  util::Table table({"scenario", "jobs", "reps", "slots", "wall_ms",
                     "slots_per_sec"});
  std::vector<Point> points;

  for (const std::int64_t n : job_counts) {
    const Slot window = 4 * n;
    const Slot horizon = std::min<Slot>(window, 2048);

    // burst/uniform: everyone live from slot 0, ternary feedback.
    const bench::WorkloadSpec burst{.kind = bench::WorkloadSpec::Kind::kBatch,
                                    .jobs = n,
                                    .window = window};
    points.push_back(measure("burst/uniform", n, common.reps,
                             [&](std::uint64_t rep) {
                               sim::SimConfig config;
                               config.seed = common.seed + rep;
                               config.horizon = horizon;
                               config.tracer = trace.get();
                               config.fast_forward = common.fast_forward;
                               return sim::Simulation(
                                   bench::make_workload(burst), uniform,
                                   config);
                             }));

    // burst/ack-aloha: ACK-only listeners, ~64 transmitters per slot.
    const double p_tx =
        std::min(0.5, 64.0 / static_cast<double>(n));
    const auto aloha = baselines::make_aloha_factory(p_tx);
    points.push_back(measure("burst/ack-aloha", n, common.reps,
                             [&](std::uint64_t rep) {
                               sim::SimConfig config;
                               config.seed = common.seed + rep;
                               config.horizon = horizon;
                               config.collision_detection = false;
                               config.tracer = trace.get();
                               config.fast_forward = common.fast_forward;
                               return sim::Simulation(
                                   bench::make_workload(burst), aloha,
                                   config);
                             }));

    // stagger/faults: releases 32 slots apart (few live at a time), light
    // fault plan so the injector path runs every slot.
    points.push_back(measure(
        "stagger/faults", n, common.reps, [&](std::uint64_t rep) {
          const bench::WorkloadSpec stagger{
              .kind = bench::WorkloadSpec::Kind::kStagger, .jobs = n};
          workload::Instance instance = bench::make_workload(stagger);
          sim::SimConfig config;
          config.seed = common.seed + rep;
          config.faults.feedback_loss_rate = 0.01;
          config.faults.crash_rate = 0.0005;
          config.faults.stall_min = 4;
          config.faults.stall_max = 16;
          config.tracer = trace.get();
          config.fast_forward = common.fast_forward;
          return sim::Simulation(std::move(instance), uniform, config);
        }));
  }

  for (const Point& p : points) {
    table.add_row({p.scenario, std::to_string(p.jobs),
                   std::to_string(p.reps), std::to_string(p.slots),
                   util::fmt(p.wall_ms, 3), util::fmt_sci(slots_per_sec(p), 4)});
  }

  bench::emit(table, "Slot-engine throughput (single-replication slots/sec)",
              common, &trace);
  return 0;
}
