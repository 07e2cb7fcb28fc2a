// Mega-scale slot-engine harness: timeline slots/sec with the event-driven
// fast-forward engine, streaming arrivals, and multi-channel sharding
// (DESIGN.md §6j). Like bench_slot_engine this reproduces no paper claim —
// it is the perf gate for the mega-scale machinery, read (blocking, same
// machine) against a bench_slot_engine run via
//   tools/check_perf.py mega.json --speedup-over slot.json \
//       --speedup-factor 10 --speedup-match sparse/ --speedup-match idle/
//
// The "slots" column counts *timeline* slots covered — slots_simulated
// (which includes fast-forwarded slots, accounted exactly as if stepped)
// plus slots_skipped (empty-live gaps with nothing to account) — so
// slots_per_sec is the rate at which a run advances simulated time. That is
// the figure 10^8-10^9-slot stability horizons care about, and the figure
// the >= 10x gate applies to. Sweep points:
//   sparse/uniform  — n jobs live across a 2^22-slot window; almost every
//                     slot is dormant, so throughput is the fast-forward
//                     skip rate, not the step rate.
//   idle/beb        — staggered releases 2048 slots apart with 256-slot
//                     windows; alternates live BEB backoff (dormant spans)
//                     with long empty-live gaps.
//   stream/poisson  — streaming Poisson arrivals over a long horizon with
//                     bounded memory (run_stream; jobs column = arrivals).
//   stream/mmpp     — bursty Markov-modulated arrivals, same horizon.
//   shard/uniform   — run_sharded across --channels=K FDMA shards (one
//                     thread per shard with --threads>=K); per-shard
//                     metrics land in the JSON meta "per_shard" array.
//
// Flags beyond the common ones: --arrivals=SPEC adds a stream/custom row
// driven by that process; --fast-forward=off|on|validate applies to every
// scenario and defaults to `on` here; --channels=K (default 4) sets the
// shard/ fan-out.

#include <chrono>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/beb.hpp"
#include "bench_common.hpp"
#include "core/params.hpp"
#include "core/uniform.hpp"
#include "sim/arrivals.hpp"
#include "sim/multichannel.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace crmd;

struct Point {
  std::string scenario;
  std::int64_t jobs = 0;
  int reps = 0;
  std::int64_t slots = 0;  // timeline slots covered (simulated + skipped)
  double wall_ms = 0.0;
  int shards = 1;
};

std::int64_t covered(const sim::SimMetrics& m) {
  return m.slots_simulated + m.slots_skipped;
}

double slots_per_sec(const Point& p) {
  return p.wall_ms > 0.0 ? static_cast<double>(p.slots) / (p.wall_ms / 1e3)
                         : 0.0;
}

/// Times `body(rep)` (which returns the run's SimMetrics) `reps` times.
template <typename Body>
Point measure(const std::string& scenario, std::int64_t jobs, int reps,
              const Body& body) {
  Point p;
  p.scenario = scenario;
  p.jobs = jobs;
  p.reps = reps;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const sim::SimMetrics metrics = body(static_cast<std::uint64_t>(rep));
    const auto stop = std::chrono::steady_clock::now();
    p.slots += covered(metrics);
    p.wall_ms +=
        std::chrono::duration<double, std::milli>(stop - start).count();
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bench::CommonArgs common = bench::parse_common(args, /*reps=*/3);
  // This harness exists to exercise the fast-forward engine, so it is on
  // by default.
  const sim::FastForward fast_forward = bench::spec_flag(
      args, "fast-forward", sim::FastForward::kOn,
      sim::parse_fast_forward_spec);
  // Shard fan-out for the shard/ scenario, in SimConfig's [1, 256]. Shards
  // are static, so this takes K alone: run_sharded refuses :migrate.
  const int channels = bench::int_flag(args, "channels", 4, 1, 256);
  std::optional<sim::ArrivalSpec> custom_arrivals;
  if (args.has("arrivals")) {
    custom_arrivals = bench::spec_flag(args, "arrivals", sim::ArrivalSpec{},
                                       sim::parse_arrivals_spec);
  }
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  const bool quick = common.quick;
  const Slot sparse_window = quick ? (Slot{1} << 18) : (Slot{1} << 22);
  const Slot stream_horizon = quick ? (Slot{1} << 18) : (Slot{1} << 24);
  const std::int64_t idle_jobs = quick ? 512 : 2048;
  const std::int64_t shard_jobs = quick ? 2048 : 8192;
  const Slot shard_window = quick ? (Slot{1} << 13) : (Slot{1} << 15);

  core::Params params;
  params.lambda = 2;
  const auto uniform = core::make_uniform_factory(params);
  const auto beb = baselines::make_beb_factory();

  std::vector<Point> points;

  // sparse/uniform: n jobs share one huge window; dormant almost always.
  std::vector<std::int64_t> sparse_jobs = {256, 1024};
  if (quick) {
    sparse_jobs = {256};
  }
  for (const std::int64_t n : sparse_jobs) {
    const bench::WorkloadSpec spec{.kind = bench::WorkloadSpec::Kind::kBatch,
                                   .jobs = n,
                                   .window = sparse_window};
    points.push_back(
        measure("sparse/uniform", n, common.reps, [&](std::uint64_t rep) {
          sim::SimConfig config;
          config.seed = common.seed + rep;
          config.fast_forward = fast_forward;
          config.tracer = trace.get();
          return sim::run(bench::make_workload(spec), uniform, config)
              .metrics;
        }));
  }

  // idle/beb: staggered releases, long empty-live gaps between windows.
  {
    const bench::WorkloadSpec spec{
        .kind = bench::WorkloadSpec::Kind::kStagger,
        .jobs = idle_jobs,
        .stride = 2048,
        .lifetime = 256};
    points.push_back(
        measure("idle/beb", idle_jobs, common.reps, [&](std::uint64_t rep) {
          sim::SimConfig config;
          config.seed = common.seed + rep;
          config.fast_forward = fast_forward;
          config.tracer = trace.get();
          return sim::run(bench::make_workload(spec), beb, config).metrics;
        }));
  }

  // stream/*: open-ended arrivals through run_stream — memory stays
  // bounded by the live set, so the horizon can grow without limit.
  const auto stream_point = [&](const std::string& scenario,
                                const sim::ArrivalSpec& spec) {
    std::int64_t jobs_seen = 0;
    Point p =
        measure(scenario, 0, common.reps, [&](std::uint64_t rep) {
          sim::SimConfig config;
          config.seed = common.seed + rep;
          config.horizon = stream_horizon;
          config.fast_forward = fast_forward;
          config.keep_job_results = false;
          config.tracer = trace.get();
          const sim::SimResult result =
              sim::run_stream(spec.make(), uniform, config);
          jobs_seen += result.stream.jobs;
          return result.metrics;
        });
    p.jobs = jobs_seen;
    return p;
  };
  {
    sim::ArrivalSpec poisson;
    poisson.kind = sim::ArrivalSpec::Kind::kPoisson;
    poisson.rate = 0.0005;
    poisson.window = 4096;
    points.push_back(stream_point("stream/poisson", poisson));

    sim::ArrivalSpec mmpp;
    mmpp.kind = sim::ArrivalSpec::Kind::kMmpp;
    mmpp.rate = 0.0002;
    mmpp.rate_hi = 0.01;
    mmpp.window = 4096;
    mmpp.dwell = 16384;
    points.push_back(stream_point("stream/mmpp", mmpp));

    if (custom_arrivals) {
      points.push_back(stream_point("stream/custom", *custom_arrivals));
    }
  }

  // shard/uniform: static FDMA sharding across K channels, one OS thread
  // per shard (clamped by --threads). Per-shard metrics go to JSON meta.
  std::vector<sim::SimMetrics> shard_metrics;
  {
    const bench::WorkloadSpec spec{.kind = bench::WorkloadSpec::Kind::kBatch,
                                   .jobs = shard_jobs,
                                   .window = shard_window};
    Point p = measure(
        "shard/uniform", shard_jobs, common.reps, [&](std::uint64_t rep) {
          sim::SimConfig config;
          config.seed = common.seed + rep;
          config.multichannel.channels = channels;
          config.fast_forward = fast_forward;
          config.tracer = trace.get();
          const sim::ShardedResult sharded = sim::run_sharded(
              bench::make_workload(spec), uniform, config, common.threads);
          if (rep == 0) {
            shard_metrics = sharded.per_shard;
          }
          return sharded.total.metrics;
        });
    p.shards = channels;
    points.push_back(p);
  }

  util::Table table({"scenario", "jobs", "reps", "slots", "wall_ms",
                     "slots_per_sec", "shards"});
  for (const Point& p : points) {
    table.add_row({p.scenario, std::to_string(p.jobs),
                   std::to_string(p.reps), std::to_string(p.slots),
                   util::fmt(p.wall_ms, 3),
                   util::fmt_sci(slots_per_sec(p), 4),
                   std::to_string(p.shards)});
  }

  // Flatten rep-0 per-shard metrics into the JSON meta so
  // tools/plot_results.py can plot shard balance.
  {
    std::ostringstream per_shard;
    per_shard << '[';
    for (std::size_t s = 0; s < shard_metrics.size(); ++s) {
      const sim::SimMetrics& m = shard_metrics[s];
      per_shard << (s == 0 ? "" : ", ") << "{\"shard\": " << s
                << ", \"slots\": " << covered(m)
                << ", \"slots_simulated\": " << m.slots_simulated
                << ", \"fast_forward_slots\": " << m.fast_forward_slots
                << ", \"live_peak\": " << m.live_peak
                << ", \"success_slots\": " << m.success_slots << '}';
    }
    per_shard << ']';
    table.set_meta("per_shard", per_shard.str());
  }

  bench::emit(table,
              "Mega-scale engine throughput (timeline slots/sec: "
              "fast-forward + streaming + sharding)",
              common, &trace);
  return 0;
}
