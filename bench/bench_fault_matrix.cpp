// E-robustness — degradation stress matrix: how each protocol's delivery
// rate decays as the paper's model assumptions crack (faults.hpp), swept
// over protocols × fault types × intensities.
//
// Fault types: feedback corruption (perceived outcome degraded with rate
// ε), feedback loss (listener hears silence), clock skew (perceived slot
// index slips ahead), crash/stall (jobs go dark), and a budgeted adaptive
// jamming adversary (energy-constrained, B attempts per 1024-slot window).
//
// The zero-intensity column doubles as an executable no-op proof: every
// intensity-0.0 row must match the fault-free baseline *exactly* (same
// delivery counts, same channel counters) because an empty FaultPlan never
// constructs an injector and a budget-0 jammer never draws. Any mismatch
// exits nonzero, so the smoke test enforces the property on every run.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "bench_common.hpp"
#include "core/registry.hpp"
#include "workload/generators.hpp"

namespace {

struct Baseline {
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
  std::int64_t slots_simulated = 0;
  std::int64_t data_successes = 0;
  std::int64_t silent_slots = 0;
  std::int64_t noise_slots = 0;

  friend bool operator==(const Baseline&, const Baseline&) = default;
};

Baseline snapshot(const crmd::analysis::ReplicationReport& report) {
  Baseline b;
  b.trials = report.outcomes.overall().trials();
  b.successes = report.outcomes.overall().successes();
  b.slots_simulated = report.channel.slots_simulated;
  b.data_successes = report.channel.data_successes;
  b.silent_slots = report.channel.silent_slots;
  b.noise_slots = report.channel.noise_slots;
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/10);

  core::Params params;
  params.lambda = bench::int_flag(args, "lambda", 2, 1);
  params.tau = 8;
  const int level = bench::int_flag(args, "level", 13, 1, 40);
  params.min_class = level;
  // Opt in to graceful degradation so PUNCTUAL's desync fallback is part of
  // the measured behavior (0 disables; see Params::desync_tolerance).
  params.desync_tolerance = bench::int_flag(args, "desync-tolerance", 8, 0);
  const std::int64_t batch = bench::int_flag(args, "batch", 16, 1);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);
  const Slot window = Slot{1} << level;

  const analysis::InstanceGen gen = [&](util::Rng&) {
    return workload::gen_batch(batch, window, 0);
  };

  const std::vector<std::string> protocols{"aligned", "punctual", "beb"};
  std::vector<double> intensities{0.0, 0.01, 0.05, 0.2};
  if (common.quick) {
    intensities = {0.0, 0.05};
  }
  // The budgeted adversary's energy per 1024-slot window at intensity x is
  // x * 1024 attempts (so 0.05 -> 51 jam attempts per window).
  const Slot jam_window = 1024;
  const double p_jam = 0.8;

  struct FaultAxis {
    const char* name;
    bool jamming;  // budgeted adversary instead of a FaultPlan
    sim::FaultPlan (*plan)(double intensity);
  };
  const std::vector<FaultAxis> axes{
      {"feedback-corrupt", false,
       [](double x) {
         sim::FaultPlan p;
         p.feedback_corrupt_rate = x;
         return p;
       }},
      {"feedback-loss", false,
       [](double x) {
         sim::FaultPlan p;
         p.feedback_loss_rate = x;
         return p;
       }},
      {"clock-skew", false,
       [](double x) {
         sim::FaultPlan p;
         p.clock_skew_rate = x;
         return p;
       }},
      {"crash", false,
       [](double x) {
         sim::FaultPlan p;
         p.crash_rate = x / 64.0;  // crashes are per-slot; keep them rare
         p.crash_permanent_frac = 0.25;
         return p;
       }},
      {"budget-jam", true, [](double) { return sim::FaultPlan{}; }},
  };

  util::Table table({"protocol", "fault", "intensity", "delivery rate",
                     "faults/rep", "dark slots/rep", "jammed/rep",
                     "matches fault-free"});
  int mismatches = 0;

  for (const auto& name : protocols) {
    const auto factory = core::make_protocol(name, params);
    if (!factory.has_value()) {
      std::cerr << "unknown protocol: " << name << "\n";
      return 1;
    }
    const auto clean =
        analysis::run_replications(gen, *factory, common.reps, common.seed,
                                   bench::sweep_options(common, trace));
    const Baseline base = snapshot(clean);

    for (const auto& axis : axes) {
      for (const double x : intensities) {
        analysis::RunOptions options = bench::sweep_options(common, trace);
        options.faults = axis.plan(x);
        if (axis.jamming) {  // no jammer otherwise
          const auto budget =
              static_cast<std::int64_t>(x * static_cast<double>(jam_window));
          options.jammer_gen = [budget, jam_window, p_jam](util::Rng) {
            return sim::make_adaptive_jammer(budget, jam_window, p_jam);
          };
        }
        const auto report = analysis::run_replications(
            gen, *factory, common.reps, common.seed, options);

        std::string verdict = "-";
        if (x == 0.0) {
          const bool same = snapshot(report) == base;
          verdict = same ? "yes" : "NO (bug)";
          mismatches += same ? 0 : 1;
        }
        const auto per_rep = [&](std::int64_t v) {
          return util::fmt(static_cast<double>(v) / common.reps, 1);
        };
        table.add_row({name, axis.name, util::fmt(x, 2),
                       util::fmt(report.outcomes.overall().rate(), 4),
                       per_rep(report.channel.faults_injected),
                       per_rep(report.channel.dark_job_slots),
                       per_rep(report.channel.jammed_slots), verdict});
      }
    }
  }

  bench::emit(table,
              "Robustness — delivery under injected faults (batch " +
                  std::to_string(batch) + " jobs, window 2^" +
                  std::to_string(level) + ", crash intensity = rate*64)",
              common, &trace);
  if (mismatches != 0) {
    std::cerr << "FAIL: " << mismatches
              << " zero-intensity row(s) differ from the fault-free "
                 "baseline — the no-op property is broken\n";
    return 1;
  }
  return 0;
}
