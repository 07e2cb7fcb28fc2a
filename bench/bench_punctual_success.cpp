// E12 — the paper's headline guarantee, end-to-end: on γ-slack feasible
// *general* instances (arbitrary arrivals, no global clock), every PUNCTUAL
// job delivers w.h.p. in its window size — so the per-window-size failure
// rate must fall as windows grow and as γ shrinks.

#include <vector>

#include "analysis/runner.hpp"
#include "bench_common.hpp"
#include "core/punctual/protocol.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/12);

  core::Params params;
  params.lambda = bench::int_flag(args, "lambda", 4, 1);
  params.tau = 8;
  params.min_class = 8;
  const auto factory = core::punctual::make_punctual_factory(params);

  const std::vector<double> gammas{1.0 / 16, 1.0 / 32, 1.0 / 64};

  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);
  util::Table table({"gamma", "window", "trials", "failure rate",
                     "95% CI hi", "mean latency/window"});
  for (const double gamma : gammas) {
    analysis::InstanceGen gen = [&](util::Rng& rng) {
      workload::GeneralConfig config;
      config.min_window = 1 << 10;
      config.max_window = 1 << 14;
      config.gamma = gamma;
      config.horizon = 1 << 16;
      config.pow2_windows = true;  // clean buckets
      return workload::gen_general(config, rng);
    };
    const auto report = analysis::run_replications(
        gen, factory, common.reps, common.seed,
        bench::sweep_options(common, trace));
    for (const auto& [w, bucket] : report.outcomes.by_window()) {
      const auto [lo, hi] = bucket.deadline_met.wilson95();
      (void)hi;
      table.add_row(
          {"1/" + std::to_string(static_cast<int>(1.0 / gamma)),
           util::fmt_count(w),
           util::fmt_count(
               static_cast<std::int64_t>(bucket.deadline_met.trials())),
           util::fmt(bucket.deadline_met.failure_rate(), 4),
           util::fmt(1.0 - lo, 4),
           bucket.latency.count() > 0
               ? util::fmt(bucket.latency.mean() / static_cast<double>(w), 3)
               : "-"});
    }
  }
  bench::emit(table,
              "E12 / §4 end-to-end — PUNCTUAL per-window-size failure on "
              "general clockless instances (lambda=" +
                  std::to_string(params.lambda) + ")",
              common, &trace);
  trace.finish();
  return 0;
}
