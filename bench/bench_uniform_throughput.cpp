// E3 — Lemma 4: on constant-γ-slack-feasible instances (γ < 1/6), UNIFORM
// delivers a constant fraction of all messages w.h.p. — both for
// power-of-2-aligned windows and for arbitrary windows.
//
// The harness sweeps γ over aligned and general generator instances,
// reporting the delivered fraction (EDF, the centralized optimum, delivers
// 1.0 on every feasible instance by construction).

#include <vector>

#include "analysis/runner.hpp"
#include "baselines/edf.hpp"
#include "bench_common.hpp"
#include "core/uniform.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/10);

  core::Params params;
  params.uniform_attempts = bench::int_flag(args, "attempts", 1, 1,
                                            core::Params::kMaxUniformAttempts);
  const auto factory = core::make_uniform_factory(params);

  const std::vector<double> gammas{1.0 / 8, 1.0 / 12, 1.0 / 24};

  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);
  util::Table table({"windows", "gamma", "jobs/rep", "delivered fraction",
                     "95% CI", "mean contention", "edf fraction"});
  for (const bool aligned : {true, false}) {
    for (const double gamma : gammas) {
      analysis::InstanceGen gen = [&](util::Rng& rng) {
        if (aligned) {
          workload::AlignedConfig config;
          config.min_class = 8;
          config.max_class = 11;
          config.gamma = gamma;
          config.horizon = 1 << 13;
          return workload::gen_aligned(config, rng);
        }
        workload::GeneralConfig config;
        config.min_window = 1 << 8;
        config.max_window = 1 << 11;
        config.gamma = gamma;
        config.horizon = 1 << 13;
        return workload::gen_general(config, rng);
      };
      const auto report = analysis::run_replications(
          gen, factory, common.reps, common.seed,
          bench::sweep_options(common, trace));
      const auto [lo, hi] = report.outcomes.overall().wilson95();

      // EDF reference on one sample instance (always 1.0 when feasible).
      util::Rng rng(common.seed);
      const auto sample = gen(rng);
      const double edf_frac =
          sample.empty()
              ? 1.0
              : static_cast<double>(baselines::edf_successes(sample)) /
                    static_cast<double>(sample.size());

      table.add_row({aligned ? "aligned" : "general",
                     "1/" + std::to_string(static_cast<int>(1.0 / gamma)),
                     util::fmt(report.jobs_per_rep.mean(), 1),
                     util::fmt(report.outcomes.overall().rate(), 4),
                     "[" + util::fmt(lo, 3) + ", " + util::fmt(hi, 3) + "]",
                     util::fmt(report.channel.contention.mean(), 3),
                     util::fmt(edf_frac, 3)});
    }
  }
  bench::emit(table,
              "E3 / Lemma 4 — UNIFORM delivers a constant fraction on "
              "slack-feasible instances (attempts=" +
                  std::to_string(params.uniform_attempts) + ")",
              common, &trace);
  return 0;
}
