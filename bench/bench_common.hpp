#pragma once

// Shared scaffolding for the experiment harnesses in bench/. Each binary
// reproduces one table/figure/claim from the paper (see DESIGN.md §4 and
// EXPERIMENTS.md) and prints its results through util::Table so the output
// of `for b in build/bench/*; do $b; done` is uniform and diffable.
//
// Common flags (every harness): --reps=N, --seed=S, --csv=path.csv,
// --json=path.json, --quick (shrink the sweep for smoke runs),
// --threads=N (workers for the harness's simulations, run_replications
// sweeps and per-rep loops alike; 0 = one per hardware thread, 1 = serial,
// at most 1024; results and every exported artifact are bit-identical for
// every value — the determinism contract, see obs/run_traced.hpp; the few
// harnesses that time runs or step a single one stay serial, DESIGN.md
// §6d), --trace-events=path.json (Chrome
// trace-event export of every simulated run; open in chrome://tracing or
// Perfetto), --timeline=path.json (slot-bucketed telemetry aggregated
// over every simulated run — obs/timeline.hpp; bit-identical for every
// --threads value), --metrics=path.json (metrics-registry snapshot).
// A harness takes these and the flags it documents, nothing else: after
// its last read, `checked([&] { args.reject_unread(); })` refuses any
// other flag or a positional argument with one `error:` line and exit 2.
// The channel and engine scenario flags (--collision-cost, --fast-forward,
// --channels, --arrivals) belong to the few harnesses that apply them.
//
// JSON outputs carry a "meta" object with run-profiler timings (wall_ms,
// slots_per_sec, per-phase breakdown) plus the worker count ("threads")
// and the per-thread simulation throughput ("slots_per_sec_per_thread"),
// so BENCH_*.json records a real perf trajectory. Timings never appear in
// the console table or CSV, so those artifacts stay byte-stable across
// runs.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/run_traced.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/pool.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

namespace crmd::bench {

/// Flags shared by every harness.
struct CommonArgs {
  int reps;
  std::uint64_t seed;
  std::string csv;
  std::string json;
  std::string trace_events;
  /// Slot-bucketed telemetry JSON from --timeline=PATH (obs/timeline.hpp);
  /// empty = off. Aggregates every traced run of the harness.
  std::string timeline;
  /// Metrics-registry snapshot JSON from --metrics=PATH; empty = off.
  std::string metrics;
  bool quick;
  /// Workers as requested by --threads= (0 = hardware default); pass to
  /// run_replications or obs::run_traced, which resolve and clamp it.
  int threads;
};

/// An output file that could not be written fails the harness the way a
/// malformed flag does: one `error: cannot write PATH` line and exit 2.
inline void require_written(bool written, const std::string& path) {
  if (!written) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(2);
  }
}

/// Returns `parse()`. A std::invalid_argument it throws (a malformed or
/// out-of-range flag) prints one `error:` line and exits 2: how every
/// harness refuses a bad command line before it runs anything.
template <typename Parse>
auto checked(Parse&& parse) -> decltype(parse()) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// Integer flag `key` in [lo, hi], checked before any narrowing.
inline std::int64_t int64_flag(const util::Args& args, const std::string& key,
                               std::int64_t fallback, std::int64_t lo,
                               std::int64_t hi) {
  return checked([&] { return args.get_int_in(key, fallback, lo, hi); });
}

/// int64_flag for a flag a harness holds in an int.
inline int int_flag(const util::Args& args, const std::string& key,
                    int fallback, int lo,
                    int hi = std::numeric_limits<int>::max()) {
  return static_cast<int>(int64_flag(args, key, fallback, lo, hi));
}

/// Real flag `key` in [lo, hi], or in (lo, hi] when `open_lo`. NaN lies
/// in no range.
inline double double_flag(const util::Args& args, const std::string& key,
                          double fallback, double lo, double hi,
                          bool open_lo = false) {
  return checked([&] {
    const double v = args.get_double(key, fallback);
    if (!((open_lo ? v > lo : v >= lo) && v <= hi)) {
      std::ostringstream what;
      what << "--" << key << " must be in " << (open_lo ? '(' : '[') << lo
           << ", " << hi << "], got " << args.get(key);
      throw std::invalid_argument(what.str());
    }
    return v;
  });
}

/// Scenario flag `key` read with one of the sim::parse_*_spec parsers
/// (e.g. sim::parse_fast_forward_spec), or `fallback` when absent. A bad
/// spec prints the parser's one `error:` line and exits 2.
template <typename T>
T spec_flag(const util::Args& args, const std::string& key, T fallback,
            std::optional<T> (*parse)(const std::string&, std::ostream&)) {
  if (!args.has(key)) {
    return fallback;
  }
  if (const auto value = parse(args.get(key), std::cerr)) {
    return *value;
  }
  std::exit(2);
}

/// Parses the shared flags with harness-specific defaults. A malformed
/// number, `--reps` outside [1, 2^31) or `--threads` outside
/// [0, util::kMaxThreads] prints one `error:` line and exits 2. Starts the
/// run profiler's clock, so meta.wall_ms covers the whole run.
inline CommonArgs parse_common(const util::Args& args, int default_reps,
                               std::uint64_t default_seed = 1) {
  obs::global_profiler().reset();
  CommonArgs c;
  c.quick = args.get_bool("quick", false);
  c.reps = int_flag(args, "reps", default_reps, 1);
  c.seed = static_cast<std::uint64_t>(
      checked([&] { return args.get_int("seed", default_seed); }));
  c.threads = int_flag(args, "threads", 0, 0, util::kMaxThreads);
  if (c.quick) {
    c.reps = std::max(1, c.reps / 4);
  }
  c.csv = args.get("csv", "");
  c.json = args.get("json", "");
  c.trace_events = args.get("trace-events", "");
  c.timeline = args.get("timeline", "");
  c.metrics = args.get("metrics", "");
  return c;
}

/// parse_common for a harness that runs serially by design (DESIGN.md
/// §6d). --threads is still parsed and range-checked, but the harness runs
/// on one thread, so `threads` is 1 and its JSON and metrics say so.
inline CommonArgs parse_serial(const util::Args& args, int default_reps,
                               std::uint64_t default_seed = 1) {
  CommonArgs c = parse_common(args, default_reps, default_seed);
  c.threads = 1;
  return c;
}

/// Shared workload constructions for the engine-throughput harnesses
/// (bench_slot_engine, bench_stability, bench_megascale). Each Kind
/// reproduces the construction the harnesses historically inlined,
/// bit-exactly, so perf trajectories stay comparable across the dedup.
struct WorkloadSpec {
  enum class Kind {
    kBatch,    ///< gen_batch(jobs, window): all live from slot 0.
    kStagger,  ///< releases i*stride, deadlines i*stride + lifetime.
    kPoisson,  ///< gen_poisson(rate, window, horizon, rng) — batch Poisson.
  };
  Kind kind = Kind::kBatch;
  std::int64_t jobs = 0;  ///< kBatch / kStagger
  Slot window = 0;        ///< kBatch / kPoisson per-job window
  Slot stride = 32;       ///< kStagger release gap
  Slot lifetime = 64;     ///< kStagger per-job window
  double rate = 0.0;      ///< kPoisson jobs/slot
  Slot horizon = 0;       ///< kPoisson release range
};

/// Builds the instance a WorkloadSpec describes. `rng` is consumed only by
/// kPoisson (pass the per-rep generation stream); deterministic kinds
/// ignore it, so passing nullptr is fine there.
inline workload::Instance make_workload(const WorkloadSpec& spec,
                                        util::Rng* rng = nullptr) {
  switch (spec.kind) {
    case WorkloadSpec::Kind::kStagger: {
      workload::Instance instance;
      instance.jobs.reserve(static_cast<std::size_t>(spec.jobs));
      for (std::int64_t i = 0; i < spec.jobs; ++i) {
        instance.jobs.push_back(workload::JobSpec{
            i * spec.stride, i * spec.stride + spec.lifetime});
      }
      return instance;
    }
    case WorkloadSpec::Kind::kPoisson:
      return workload::gen_poisson(spec.rate, spec.window, spec.horizon,
                                   *rng);
    case WorkloadSpec::Kind::kBatch:
    default:
      return workload::gen_batch(spec.jobs, spec.window);
  }
}

/// Owns the optional tracing session built from --trace-events and/or
/// --timeline. `get()` is null when tracing is off, which every consumer
/// treats as "emit nothing" (see CRMD_TRACE); pass it to run_replications
/// or SimConfig::tracer. Call finish() (or let the destructor run) to
/// close the Chrome trace and write the timeline file.
struct TraceSession {
  std::unique_ptr<obs::Tracer> tracer;
  std::shared_ptr<obs::Timeline> timeline;
  std::string timeline_path;
  bool timeline_written = false;

  TraceSession() = default;
  TraceSession(TraceSession&&) = default;
  TraceSession& operator=(TraceSession&&) = default;

  [[nodiscard]] obs::Tracer* get() const noexcept { return tracer.get(); }

  /// Writes the timeline JSON (idempotent; a later finish() will not
  /// rewrite it). Also stamps trace.emitted / trace.dropped_events into
  /// the global metrics registry so a --metrics snapshot records trace
  /// completeness.
  void export_artifacts() {
    if (tracer) {
      obs::Registry& reg = obs::global_registry();
      reg.counter("trace.emitted")
          .inc(static_cast<std::int64_t>(tracer->emitted()) -
               reg.counter("trace.emitted").value());
      reg.counter("trace.dropped_events")
          .inc(static_cast<std::int64_t>(tracer->dropped()) -
               reg.counter("trace.dropped_events").value());
    }
    if (timeline) {
      // Rewritten on every call so multi-table harnesses end with the
      // full aggregate; the message prints once.
      require_written(timeline->save_json(timeline_path), timeline_path);
      if (!timeline_written) {
        timeline_written = true;
        std::cout << "(timeline written to " << timeline_path << ")\n";
      }
    }
  }

  void finish() {
    if (tracer) {
      tracer->close();
      if (tracer->dropped() > 0) {
        std::cerr << "warning: trace dropped " << tracer->dropped()
                  << " event(s); exported traces are incomplete\n";
      }
    }
    export_artifacts();
    tracer.reset();
    timeline.reset();
  }

  ~TraceSession() { finish(); }
};

/// Builds the tracing session requested by --trace-events / --timeline
/// (off by default: a null tracer and bit-identical results).
inline TraceSession make_trace_session(const CommonArgs& common) {
  TraceSession session;
  if (common.trace_events.empty() && common.timeline.empty()) {
    return session;
  }
  session.tracer = std::make_unique<obs::Tracer>();
  if (!common.trace_events.empty()) {
    try {  // the sink opens its file here, to fail before any run
      session.tracer->add_sink(
          std::make_shared<obs::ChromeTraceSink>(common.trace_events));
    } catch (const std::runtime_error&) {
      require_written(false, common.trace_events);
    }
    std::cout << "(tracing to " << common.trace_events << ")\n";
  }
  if (!common.timeline.empty()) {
    session.timeline = std::make_shared<obs::Timeline>();
    session.tracer->add_sink(session.timeline);
    session.timeline_path = common.timeline;
  }
  return session;
}

/// Options for a run_replications sweep on the paper's channel: traced
/// into `session`, on --threads workers.
inline analysis::RunOptions sweep_options(const CommonArgs& common,
                                          const TraceSession& session) {
  analysis::RunOptions options;
  options.tracer = session.get();
  options.threads = common.threads;
  return options;
}

/// Stamps run-profiler results into the table's JSON meta block:
/// wall-clock, slots simulated, slots/sec (aggregate across workers and
/// per worker thread), the worker count, and the per-phase breakdown.
/// `threads` is the resolved replication worker count (>= 1).
inline void stamp_profile(util::Table& table, int threads = 1) {
  const obs::RunProfiler& prof = obs::global_profiler();
  const double wall_ms = prof.wall_ms();
  std::ostringstream num;
  num << wall_ms;
  table.set_meta("wall_ms", num.str());
  num.str("");
  num << prof.slots();
  table.set_meta("slots_simulated", num.str());
  // Aggregate throughput: total slots over wall time — the figure a
  // --threads= speedup shows up in.
  num.str("");
  num << (wall_ms > 0.0
              ? static_cast<double>(prof.slots()) / (wall_ms / 1000.0)
              : 0.0);
  table.set_meta("slots_per_sec", num.str());
  // Per-thread throughput: phase ms sum across workers, so the profiler's
  // simulation-phase rate is per worker (see obs/profiler.hpp).
  num.str("");
  num << prof.slots_per_sec();
  table.set_meta("slots_per_sec_per_thread", num.str());
  table.set_meta("threads", std::to_string(threads));
  // Mega-scale provenance: how much of the slot count was fast-forwarded,
  // the peak live-job count, and the shard fan-out (1 = unsharded). Stamped
  // unconditionally so check_perf.py can validate every BENCH_*.json.
  table.set_meta("fast_forward_slots",
                 std::to_string(prof.fast_forward_slots()));
  table.set_meta("live_peak", std::to_string(prof.live_peak()));
  table.set_meta("shards", std::to_string(prof.shards()));
  std::ostringstream phases;
  phases << '{';
  bool first = true;
  for (const auto& ph : prof.phases()) {
    phases << (first ? "" : ", ") << '"' << ph.name << "\": " << ph.ms;
    first = false;
  }
  phases << '}';
  table.set_meta("phase_ms", phases.str());
}

/// Stamps profiler gauges into the global metrics registry and writes the
/// --metrics=PATH snapshot (Registry::write_json). Trace counters land in
/// the registry from TraceSession::export_artifacts before this runs.
inline void export_metrics(const CommonArgs& common, int threads) {
  if (common.metrics.empty()) {
    return;
  }
  obs::Registry& reg = obs::global_registry();
  const obs::RunProfiler& prof = obs::global_profiler();
  reg.gauge("profile.wall_ms").set(prof.wall_ms());
  reg.gauge("profile.slots_simulated")
      .set(static_cast<double>(prof.slots()));
  reg.gauge("run.threads").set(static_cast<double>(threads));
  std::ofstream out(common.metrics);
  reg.write_json(out);
  require_written(static_cast<bool>(out), common.metrics);
  std::cout << "(metrics written to " << common.metrics << ")\n";
}

/// Prints the table (and saves CSV/JSON/metrics when requested). `header`
/// names the experiment and its paper anchor. JSON output gains the
/// profiler meta; when a TraceSession is passed its timeline is written
/// first and stamped into the JSON meta (timeline path, bucket geometry,
/// trace completeness), so artifacts cross-reference each other.
inline void emit(util::Table& table, const std::string& header,
                 const CommonArgs& common, TraceSession* session = nullptr) {
  if (session != nullptr) {
    session->export_artifacts();
  }
  table.print(std::cout, header);
  if (!common.csv.empty()) {
    require_written(table.save_csv(common.csv), common.csv);
    std::cout << "(csv written to " << common.csv << ")\n";
  }
  if (!common.json.empty()) {
    stamp_profile(table, util::resolve_threads(common.threads));
    if (session != nullptr && session->tracer) {
      table.set_meta("trace_emitted", std::to_string(session->tracer->emitted()));
      table.set_meta("trace_dropped_events",
                     std::to_string(session->tracer->dropped()));
    }
    if (session != nullptr && session->timeline) {
      table.set_meta("timeline", "\"" + session->timeline_path + "\"");
      table.set_meta("timeline_bucket_width",
                     std::to_string(session->timeline->bucket_width()));
      table.set_meta("timeline_buckets",
                     std::to_string(session->timeline->bucket_count()));
      table.set_meta("timeline_events",
                     std::to_string(session->timeline->events_seen()));
    }
    require_written(table.save_json(common.json), common.json);
    std::cout << "(json written to " << common.json << ")\n";
  }
  export_metrics(common, util::resolve_threads(common.threads));
  std::cout << "\n";
}

}  // namespace crmd::bench
