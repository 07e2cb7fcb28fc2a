// crmd_cli — generic simulation driver: pick a protocol, a workload, and
// the constants from the command line; get a per-window-size outcome table.
//
//   ./examples/crmd_cli --protocol=punctual --workload=general \
//       --gamma=0.03125 --reps=5 --seed=7
//   ./examples/crmd_cli --protocol=aligned --workload=aligned --lambda=2
//   ./examples/crmd_cli --protocol=beb --workload=starvation --n=512
//
// Workloads: aligned | general | batch | starvation | periodic.
// Protocols: see --list.

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/runner.hpp"
#include "core/registry.hpp"
#include "sim/arrivals.hpp"
#include "sim/multichannel.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/feasibility.hpp"
#include "workload/generators.hpp"

namespace {

using namespace crmd;

int usage() {
  std::cout
      << "usage: crmd_cli --protocol=NAME --workload=KIND [options]\n"
         "  --list                 list protocols and exit\n"
         "  --workload=aligned|general|batch|starvation|periodic\n"
         "  --gamma=G              slack parameter (default 1/32)\n"
         "  --fill=F               fraction of feasibility ceiling (default 0.5)\n"
         "  --n=N                  jobs for batch/starvation (default 16/256)\n"
         "  --window=W             batch window (default 8192)\n"
         "  --horizon=H            generator horizon (default 65536)\n"
         "  --lambda=L --tau=T --min-class=C   protocol constants\n"
         "  --energy-spread-frac=F ENERGY_BEB first-spread fraction of the\n"
         "                         laxity, the E24 Pareto knob (default "
         "0.5;\n"
         "                         >1 duty-cycles, shedding some attempts)\n"
         "  --energy-carrier-sense=0|1  ENERGY_BEB one-slot carrier sample\n"
         "                         after each failure (default 0)\n"
         "  --claim-scale=S        PUNCTUAL leader-claim probability scale\n"
         "                         (paper: 1; raise to elect at small "
         "windows)\n"
         "  --reps=R --seed=S      replication controls\n"
         "  --feedback=MODEL       channel feedback semantics: ternary |\n"
         "                         binary_ack | collision_as_silence |\n"
         "                         noisy[:eps] | capture[:alpha] (default "
         "ternary)\n"
         "  --collision-cost=C     a perceived collision freezes the "
         "channel for\n"
         "                         C-1 extra slots (default 1 = the paper's "
         "channel)\n"
         "  --fast-forward=MODE    event-driven idle-span skipping: off | "
         "on |\n"
         "                         validate (default off = bit-identical "
         "engine)\n"
         "  --channels=K[:migrate[:N]]\n"
         "                         FDMA co-simulation over K sub-channels "
         "(default 1);\n"
         "                         :migrate rehashes a job after N "
         "collisions\n"
         "  --arrivals=SPEC        replace --workload with a streaming "
         "arrival\n"
         "                         process materialized to --horizon: "
         "poisson:RATE[:W]\n"
         "                         | mmpp:RLO:RHI[:W[:DWELL]] | trace:PATH\n"
         "  --threads=N            replication workers (0 = one per "
         "hardware thread,\n"
         "                         1 = serial; results are bit-identical "
         "either way)\n"
         "  --trace=PATH           save a per-slot CSV of one run\n"
         "  --jobs-csv=PATH        save per-job outcomes of one run\n"
         "  --faults-csv=PATH      save injected fault events of one run\n"
         "  --fault-corrupt=R --fault-loss=R --fault-crash=R\n"
         "                         per-job per-slot fault rates (default 0)\n"
         "  --trace-events=PATH    save a Chrome trace (chrome://tracing) "
         "of one run\n"
         "  --trace-jsonl=PATH     save the raw event stream (JSONL) of "
         "one run\n"
         "  --watchdog             check protocol invariants on the event "
         "stream\n"
         "  --watchdog-strict      like --watchdog, but exit 1 on any "
         "violation\n"
         "  --watchdog-cap=C       opt-in: flag slots with contention > C\n"
         "  --watchdog-settle=N    skip the first N slots of contention "
         "checks\n"
         "  --timeline=PATH        save slot-bucketed telemetry (JSON) of "
         "the\n"
         "                         replicated sweep (bit-identical for "
         "every --threads)\n"
         "  --metrics=PATH         save a metrics-registry snapshot "
         "(JSON)\n";
  return 2;
}

/// Warns when a tracer lost events (sinks detached mid-run / emit after
/// close); exported artifacts would silently be partial otherwise.
void warn_if_dropped(const obs::Tracer& tracer) {
  if (tracer.dropped() > 0) {
    std::cerr << "warning: trace dropped " << tracer.dropped()
              << " event(s); exported traces are incomplete\n";
  }
}

int run_cli(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("list")) {
    for (const auto& info : core::protocol_catalog()) {
      std::cout << info.name << " — " << info.description;
      if (info.needs_collision_detection) {
        std::cout << (info.adapts_to_degraded_channel
                          ? " [needs CD; blind fallback without it]"
                          : " [needs CD]");
      } else if (info.no_cd_native) {
        std::cout << " [no-CD native]";
      }
      if (info.estimates_from_collisions) {
        std::cout << " [estimator assumes lossless collisions]";
      }
      std::cout << "\n";
    }
    return 0;
  }
  const std::string protocol = args.get("protocol", "");
  const std::string workload = args.get("workload", "");
  if (protocol.empty() || (workload.empty() && !args.has("arrivals"))) {
    return usage();
  }

  core::Params params;
  params.lambda = static_cast<int>(args.get_int("lambda", params.lambda));
  params.tau = args.get_int("tau", params.tau);
  params.min_class =
      static_cast<int>(args.get_int("min-class", params.min_class));
  params.pullback_prob_scale =
      args.get_double("claim-scale", params.pullback_prob_scale);
  params.energy_spread_frac =
      args.get_double("energy-spread-frac", params.energy_spread_frac);
  params.energy_listen_after_failure =
      args.get_int("energy-carrier-sense",
                   params.energy_listen_after_failure ? 1 : 0) != 0;
  if (!core::is_protocol(protocol)) {
    std::cerr << "unknown protocol '" << protocol << "' (try --list)\n";
    return 2;
  }

  const double gamma = args.get_double("gamma", 1.0 / 32);
  const double fill = args.get_double("fill", 0.5);
  const Slot horizon = args.get_int("horizon", 1 << 16);
  const std::int64_t n = args.get_int("n", 0);
  const Slot window = args.get_int("window", 1 << 13);

  const auto fast_forward = sim::parse_fast_forward_spec(
      args.get("fast-forward", "off"), std::cerr);
  if (!fast_forward) {
    return 2;
  }
  const auto channels =
      sim::parse_channels_spec(args.get("channels", "1"), std::cerr);
  if (!channels) {
    return 2;
  }
  std::optional<sim::ArrivalSpec> arrivals;
  if (args.has("arrivals")) {
    arrivals = sim::parse_arrivals_spec(args.get("arrivals", ""), std::cerr);
    if (!arrivals) {
      return 2;
    }
  }

  analysis::InstanceGen gen;
  if (arrivals) {
    // A streaming arrival process replaces --workload: each replication
    // materializes the process (releases < --horizon) from its own
    // generation stream, so --arrivals composes with --reps like any
    // generator.
    const sim::ArrivalSpec arrival_spec = *arrivals;
    gen = [arrival_spec, horizon](util::Rng& rng) {
      const auto process = arrival_spec.make();
      return sim::materialize_arrivals(*process, horizon, rng);
    };
  } else if (workload == "aligned") {
    gen = [=](util::Rng& rng) {
      workload::AlignedConfig config;
      config.min_class = params.min_class;
      config.max_class = params.min_class + 4;
      config.gamma = gamma;
      config.fill = fill;
      config.horizon = horizon;
      return workload::gen_aligned(config, rng);
    };
  } else if (workload == "general") {
    gen = [=](util::Rng& rng) {
      workload::GeneralConfig config;
      config.min_window = Slot{1} << params.min_class;
      config.max_window = Slot{1} << (params.min_class + 4);
      config.gamma = gamma;
      config.fill = fill;
      config.horizon = horizon;
      return workload::gen_general(config, rng);
    };
  } else if (workload == "batch") {
    gen = [=](util::Rng&) {
      return workload::gen_batch(n > 0 ? n : 16, window, 0);
    };
  } else if (workload == "starvation") {
    gen = [=](util::Rng&) {
      return workload::gen_starvation(n > 0 ? n : 256, gamma);
    };
  } else if (workload == "periodic") {
    gen = [=](util::Rng& rng) {
      const auto flows = workload::gen_periodic_flows(
          16, window / 4, window * 4, gamma, fill, rng);
      return workload::gen_periodic(flows, horizon);
    };
  } else {
    return usage();
  }

  const int reps = static_cast<int>(args.get_int("reps", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int threads = static_cast<int>(args.get_int("threads", 0));
  const std::string feedback_spec = args.get("feedback", "ternary");
  const auto feedback = sim::parse_feedback_spec(feedback_spec, std::cerr);
  if (!feedback) {
    return 2;
  }
  const auto collision_cost =
      sim::parse_collision_cost(args.get("collision-cost", "1"), std::cerr);
  if (!collision_cost) {
    return 2;
  }

  // The one simulation config of this invocation: the single traced run
  // uses it as is, the replicated sweep the same channel settings.
  sim::SimConfig config;
  config.seed = seed;
  config.feedback = *feedback;
  config.collision_cost = *collision_cost;
  config.fast_forward = *fast_forward;
  config.multichannel = *channels;
  config.faults.feedback_corrupt_rate = args.get_double("fault-corrupt", 0);
  config.faults.feedback_loss_rate = args.get_double("fault-loss", 0);
  config.faults.crash_rate = args.get_double("fault-crash", 0);
  // Reject every bad value before any run: one error line and exit 2, never
  // an exception escaping a worker thread.
  try {
    params.validate();
    config.validate();
    if (!arrivals && workload == "batch" && window < 1) {
      throw std::invalid_argument("--window must be >= 1, got " +
                                  std::to_string(window));
    }
    // The generators assert both; a NaN fails these tests too.
    if (!(gamma > 0.0 && gamma <= 1.0)) {
      throw std::invalid_argument("--gamma must be in (0, 1], got " +
                                  args.get("gamma", ""));
    }
    if (!(fill > 0.0 && fill <= 1.0)) {
      throw std::invalid_argument("--fill must be in (0, 1], got " +
                                  args.get("fill", ""));
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const auto factory = core::make_protocol(protocol, params);

  // Optional single-run trace exports (separate from the replicated sweep).
  const std::string trace_path = args.get("trace", "");
  const std::string jobs_path = args.get("jobs-csv", "");
  const std::string faults_path = args.get("faults-csv", "");
  const std::string events_path = args.get("trace-events", "");
  const std::string jsonl_path = args.get("trace-jsonl", "");
  const std::string timeline_path = args.get("timeline", "");
  const std::string metrics_path = args.get("metrics", "");
  const bool watchdog_strict = args.has("watchdog-strict");
  const bool watchdog_on = args.has("watchdog") || watchdog_strict;
  obs::WatchdogConfig wd_config;
  wd_config.contention_cap = args.get_double("watchdog-cap", 0.0);
  wd_config.settle_slots = args.get_int("watchdog-settle", 0);
  std::int64_t watchdog_violations = 0;
  if (!trace_path.empty() || !jobs_path.empty() || !faults_path.empty() ||
      !events_path.empty() || !jsonl_path.empty() || watchdog_on) {
    util::Rng rng(seed);
    config.record_slots = !trace_path.empty() || !faults_path.empty();
    std::unique_ptr<obs::Tracer> tracer;
    std::shared_ptr<obs::Watchdog> watchdog;
    if (!events_path.empty() || !jsonl_path.empty() || watchdog_on) {
      tracer = std::make_unique<obs::Tracer>();
      if (!events_path.empty()) {
        tracer->add_sink(std::make_shared<obs::ChromeTraceSink>(events_path));
      }
      if (!jsonl_path.empty()) {
        tracer->add_sink(std::make_shared<obs::JsonlFileSink>(jsonl_path));
      }
      if (watchdog_on) {
        watchdog = std::make_shared<obs::Watchdog>(wd_config);
        tracer->add_sink(watchdog);
      }
      config.tracer = tracer.get();
    }
    const auto result = sim::run(gen(rng), *factory, config);
    if (tracer) {
      tracer->close();
      warn_if_dropped(*tracer);
      obs::global_registry()
          .counter("trace.dropped_events")
          .inc(static_cast<std::int64_t>(tracer->dropped()));
    }
    if (!trace_path.empty() &&
        sim::save_slot_trace_csv(trace_path, result.slots)) {
      std::cout << "(slot trace written to " << trace_path << ")\n";
    }
    if (!jobs_path.empty() &&
        sim::save_job_results_csv(jobs_path, result.jobs)) {
      std::cout << "(job outcomes written to " << jobs_path << ")\n";
    }
    if (!faults_path.empty() &&
        sim::save_fault_events_csv(faults_path, result.fault_events)) {
      std::cout << "(fault events written to " << faults_path << ")\n";
    }
    if (!events_path.empty()) {
      std::cout << "(chrome trace written to " << events_path << ")\n";
    }
    if (!jsonl_path.empty()) {
      std::cout << "(event jsonl written to " << jsonl_path << ")\n";
    }
    if (watchdog) {
      watchdog_violations = watchdog->violation_count();
      obs::global_registry()
          .counter("watchdog.violations")
          .inc(watchdog_violations);
      if (watchdog->ok()) {
        std::cout << "(watchdog: 0 violations)\n";
      } else {
        std::cout << "(watchdog: " << watchdog->violation_count()
                  << " violations)\n";
        std::cout << watchdog->report();
      }
    }
  }

  // The replicated sweep. A --timeline tracer rides the sweep itself (the
  // runner replays parallel replications in replication order, so the
  // aggregate is bit-identical for every --threads value).
  std::unique_ptr<obs::Tracer> sweep_tracer;
  std::shared_ptr<obs::Timeline> timeline;
  if (!timeline_path.empty()) {
    sweep_tracer = std::make_unique<obs::Tracer>();
    timeline = std::make_shared<obs::Timeline>();
    sweep_tracer->add_sink(timeline);
  }
  analysis::RunOptions options;
  options.feedback = *feedback;
  options.collision_cost = *collision_cost;
  options.fast_forward = *fast_forward;
  options.multichannel = *channels;
  options.threads = threads;
  options.tracer = sweep_tracer.get();
  const auto report =
      analysis::run_replications(gen, *factory, reps, seed, options);
  if (sweep_tracer) {
    sweep_tracer->close();
    warn_if_dropped(*sweep_tracer);
    obs::Registry& reg = obs::global_registry();
    reg.counter("trace.emitted")
        .inc(static_cast<std::int64_t>(sweep_tracer->emitted()));
    reg.counter("trace.dropped_events")
        .inc(static_cast<std::int64_t>(sweep_tracer->dropped()));
    if (timeline->save_json(timeline_path)) {
      std::cout << "(timeline written to " << timeline_path << ")\n";
    } else {
      std::cout << "(FAILED to write timeline to " << timeline_path << ")\n";
    }
  }

  util::Table table({"window", "jobs", "delivered", "mean latency",
                     "mean tx/job", "mean awake/job"});
  for (const auto& [w, bucket] : report.outcomes.by_window()) {
    table.add_row(
        {util::fmt_count(w),
         util::fmt_count(
             static_cast<std::int64_t>(bucket.deadline_met.trials())),
         util::fmt(bucket.deadline_met.rate(), 4),
         bucket.latency.count() > 0 ? util::fmt(bucket.latency.mean(), 0)
                                    : "-",
         util::fmt(bucket.accesses.mean(), 1),
         util::fmt(bucket.awake.mean(), 1)});
  }
  table.print(std::cout,
              protocol + " on " + workload + " (gamma=" + util::fmt(gamma, 4) +
                  ", reps=" + std::to_string(reps) + ")");
  std::cout << "overall: " << report.outcomes.overall().successes() << "/"
            << report.outcomes.overall().trials() << " delivered ("
            << util::fmt(report.outcomes.overall().rate(), 4)
            << "); channel: " << report.channel.slots_simulated
            << " slots, mean contention "
            << util::fmt(report.channel.contention.mean(), 3);
  if (report.channel.fast_forward_slots > 0) {
    std::cout << " (" << report.channel.fast_forward_slots
              << " fast-forwarded)";
  }
  std::cout << "\nenergy: " << report.channel.slots_awake
            << " awake job-slots (" << report.channel.slots_listening
            << " listening + " << report.channel.slots_transmitting
            << " transmitting), mean awake/job "
            << util::fmt(report.outcomes.awake().mean(), 2) << "\n";

  if (!metrics_path.empty()) {
    obs::Registry& reg = obs::global_registry();
    reg.gauge("sim.slots_simulated")
        .set(static_cast<double>(report.channel.slots_simulated));
    reg.gauge("sim.delivery_rate").set(report.outcomes.overall().rate());
    reg.gauge("sim.mean_contention").set(report.channel.contention.mean());
    reg.gauge("sim.slots_awake")
        .set(static_cast<double>(report.channel.slots_awake));
    reg.gauge("sim.slots_listening")
        .set(static_cast<double>(report.channel.slots_listening));
    reg.gauge("sim.slots_transmitting")
        .set(static_cast<double>(report.channel.slots_transmitting));
    reg.gauge("run.reps").set(static_cast<double>(reps));
    reg.gauge("run.threads")
        .set(static_cast<double>(analysis::resolve_threads(threads)));
    std::ofstream out(metrics_path);
    if (out) {
      reg.write_json(out);
      std::cout << "(metrics written to " << metrics_path << ")\n";
    } else {
      std::cout << "(FAILED to write metrics to " << metrics_path << ")\n";
    }
  }

  if (watchdog_strict && watchdog_violations > 0) {
    std::cerr << "watchdog-strict: " << watchdog_violations
              << " violation(s) — failing\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // What run_cli's up-front checks cannot see — an unreadable trace file,
  // a protocol rejecting the workload's windows — still surfaces as one
  // error line and exit 2, never as an uncaught exception.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
