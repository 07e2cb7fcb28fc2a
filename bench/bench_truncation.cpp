// E6 — Lemmas 11–12: with enough slack (small enough γ) the active steps of
// every window and its nested windows fit, so algorithms are (almost) never
// truncated; as γ grows, truncation sets in and jobs start missing their
// windows.
//
// The harness sweeps the generator's γ on aligned laminar instances and
// reports the per-window-size failure rate plus channel accounting — the
// failure curve rising with γ is Lemma 12's contrapositive.

#include <vector>

#include "analysis/runner.hpp"
#include "bench_common.hpp"
#include "core/aligned/protocol.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/8);

  core::Params params;
  params.lambda = bench::int_flag(args, "lambda", 2, 1);
  params.tau = bench::checked([&] { return args.get_int("tau", 8); });
  params.min_class = 10;
  bench::checked([&] { params.validate(); });
  const auto factory = core::aligned::make_aligned_factory(params);

  const std::vector<double> gammas{1.0 / 32,  1.0 / 64, 1.0 / 128,
                                   1.0 / 256, 1.0 / 512};
  const double fill =
      bench::double_flag(args, "fill", 1.0, 0.0, 1.0, /*open_lo=*/true);

  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);
  util::Table table({"gamma", "jobs/rep", "failure rate", "95% CI",
                     "worst window-size failure", "channel util (data)",
                     "noise slots"});
  for (const double gamma : gammas) {
    analysis::InstanceGen gen = [&](util::Rng& rng) {
      workload::AlignedConfig config;
      config.min_class = params.min_class;
      config.max_class = 14;
      config.gamma = gamma;
      config.fill = fill;
      config.horizon = 1 << 16;
      return workload::gen_aligned(config, rng);
    };
    const auto report = analysis::run_replications(
        gen, factory, common.reps, common.seed,
        bench::sweep_options(common, trace));
    double worst = 0.0;
    for (const auto& [w, bucket] : report.outcomes.by_window()) {
      worst = std::max(worst, bucket.deadline_met.failure_rate());
    }
    const auto [lo, hi] = report.outcomes.overall().wilson95();
    table.add_row(
        {"1/" + std::to_string(static_cast<int>(1.0 / gamma)),
         util::fmt(report.jobs_per_rep.mean(), 1),
         util::fmt(report.outcomes.overall().failure_rate(), 4),
         "[" + util::fmt(1.0 - hi, 3) + ", " + util::fmt(1.0 - lo, 3) + "]",
         util::fmt(worst, 4), util::fmt(report.channel.data_throughput(), 4),
         util::fmt_count(report.channel.noise_slots)});
  }
  bench::emit(table,
              "E6 / Lemmas 11-12 — truncation vs slack on aligned laminar "
              "instances (classes 10..14, lambda=" +
                  std::to_string(params.lambda) + ", tau=" +
                  std::to_string(params.tau) + ")",
              common, &trace);
  return 0;
}
