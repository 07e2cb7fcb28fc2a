// E4 — Lemma 5: UNIFORM is unfair. On the instance where all n jobs arrive
// at slot 0 and job j has window size j/γ, the early (small-window,
// high-priority!) jobs see contention ~ln(n) in every slot of their windows
// and succeed with probability O(1/n^Θ(1)).
//
// The harness replicates the instance and reports per-cohort success rates:
// the first sqrt(n) jobs starve while the overall delivered fraction stays
// constant — the paper's dichotomy in one table.

#include <cmath>
#include <vector>

#include "analysis/outcomes.hpp"
#include "bench_common.hpp"
#include "core/uniform.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/60);
  const double gamma =
      bench::double_flag(args, "gamma", 0.25, 0.0, 1.0, /*open_lo=*/true);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  core::Params params;
  params.uniform_attempts = 1;
  const auto factory = core::make_uniform_factory(params);

  std::vector<std::int64_t> sizes{256, 1024, 4096};
  if (common.quick) {
    sizes = {256, 1024};
  }

  util::Table table({"n", "reps", "first sqrt(n) jobs", "middle jobs",
                     "last sqrt(n) jobs", "overall fraction"});
  for (const std::int64_t n : sizes) {
    const auto cohort = static_cast<std::int64_t>(std::sqrt(n));
    util::SuccessCounter first;
    util::SuccessCounter middle;
    util::SuccessCounter last;
    util::SuccessCounter overall;
    const int reps = (n >= 4096) ? std::max(1, common.reps / 4) : common.reps;
    const workload::Instance instance = workload::gen_starvation(n, gamma);
    obs::run_traced(
        reps, common.threads, trace.get(),
        [&](int rep, obs::Tracer* tracer) {
          sim::SimConfig config;
          config.seed =
              common.seed * 1000003 + static_cast<std::uint64_t>(rep);
          config.tracer = tracer;
          return sim::run(instance, factory, config);
        },
        [&](int /*rep*/, sim::SimResult&& result) {
          // Jobs are normalized by (release, deadline): index == j-1 of the
          // construction, so index order is window order.
          for (std::size_t i = 0; i < result.jobs.size(); ++i) {
            const bool ok = result.jobs[i].success;
            overall.add(ok);
            if (static_cast<std::int64_t>(i) < cohort) {
              first.add(ok);
            } else if (static_cast<std::int64_t>(i) >=
                       static_cast<std::int64_t>(result.jobs.size()) -
                           cohort) {
              last.add(ok);
            } else {
              middle.add(ok);
            }
          }
        });
    table.add_row({util::fmt_count(n), std::to_string(reps),
                   util::fmt(first.rate(), 4), util::fmt(middle.rate(), 4),
                   util::fmt(last.rate(), 4),
                   util::fmt(overall.rate(), 4)});
  }
  bench::emit(table,
              "E4 / Lemma 5 — UNIFORM starves the urgent jobs on the "
              "w_j = j/gamma instance (gamma=" +
                  util::fmt(gamma, 3) +
                  "); early-cohort success should vanish as n grows while "
                  "the overall fraction stays constant",
              common, &trace);
  return 0;
}
