// E8 — §3 "Jamming": ALIGNED tolerates a stochastic adversary that jams any
// slot with success probability p_jam <= 1/2 — including adversaries that
// target only the estimation protocol (to skew n_ℓ) or only data messages.
//
// The harness sweeps p_jam for three adversaries (reactive-on-success,
// control-targeted, data-targeted) on a fixed batch and reports delivery
// rates. The analyzed regime ends at p_jam = 1/2; we also probe beyond it
// to show where the guarantee visibly erodes.

#include <functional>
#include <vector>

#include "analysis/runner.hpp"
#include "bench_common.hpp"
#include "core/aligned/protocol.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/20);

  core::Params params;
  params.lambda = bench::int_flag(args, "lambda", 2, 1);
  params.tau = 8;
  const int level = bench::int_flag(args, "level", 13, 1, 40);
  params.min_class = level;
  const std::int64_t batch = bench::int_flag(args, "batch", 16, 1);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);
  const auto factory = core::aligned::make_aligned_factory(params);

  const analysis::InstanceGen gen = [&](util::Rng&) {
    return workload::gen_batch(batch, Slot{1} << level, 0);
  };

  struct Adversary {
    const char* name;
    std::function<std::unique_ptr<sim::Jammer>(double)> make;
  };
  const std::vector<Adversary> adversaries{
      {"reactive (all successes)",
       [](double p) { return sim::make_reactive_jammer(p); }},
      {"control-targeted (skew estimate)",
       [](double p) { return sim::make_control_jammer(p); }},
      {"data-targeted (attack broadcast)",
       [](double p) { return sim::make_data_jammer(p); }},
  };
  const std::vector<double> jams{0.0, 0.1, 0.25, 0.5, 0.75, 0.9};

  util::Table table({"adversary", "p_jam", "delivery rate", "95% CI lo",
                     "jammed slots/rep", "in analyzed regime"});
  for (const auto& adv : adversaries) {
    for (const double p_jam : jams) {
      analysis::RunOptions options = bench::sweep_options(common, trace);
      options.jammer_gen = [&](util::Rng) { return adv.make(p_jam); };
      const auto report = analysis::run_replications(
          gen, factory, common.reps, common.seed, options);
      const auto [lo, hi] = report.outcomes.overall().wilson95();
      (void)hi;
      table.add_row(
          {adv.name, util::fmt(p_jam, 2),
           util::fmt(report.outcomes.overall().rate(), 4),
           util::fmt(lo, 4),
           util::fmt(static_cast<double>(report.channel.jammed_slots) /
                         common.reps,
                     1),
           p_jam <= 0.5 ? "yes" : "no"});
    }
  }
  bench::emit(table,
              "E8 / §3 jamming — ALIGNED delivery under stochastic "
              "adversaries (batch " +
                  std::to_string(batch) + " jobs, window 2^" +
                  std::to_string(level) + ")",
              common, &trace);
  return 0;
}
