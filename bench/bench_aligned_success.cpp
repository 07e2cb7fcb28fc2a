// E7 — Lemma 13 / Theorem 14: every ALIGNED job succeeds with probability
// 1 − 1/w^Θ(λ) — the failure rate must *fall* as the window grows, and fall
// faster for larger λ.
//
// Two measurements:
//  (1) clean channel, proportional load (batch of w/256 jobs per window):
//      failures stay below the measurement floor at every size — the
//      qualitative "w.h.p." claim;
//  (2) stress: a reactive jammer at p_jam beyond the analyzed 1/2 regime
//      pushes failures into measurable territory, where their decay with
//      window size (and λ) becomes visible — the *shape* of 1/w^Θ(λ).

#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "core/aligned/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"

namespace {

using namespace crmd;

util::SuccessCounter run_batches(const core::Params& params, int level,
                                 std::int64_t batch, int reps,
                                 std::uint64_t seed, double p_jam,
                                 obs::Tracer* tracer, int threads) {
  const auto factory = core::aligned::make_aligned_factory(params);
  const Slot w = util::pow2(level);
  util::SuccessCounter counter;
  obs::run_traced(
      reps, threads, tracer,
      [&](int rep, obs::Tracer* rep_tracer) {
        sim::SimConfig config;
        config.seed =
            seed * 7919 + static_cast<std::uint64_t>(rep * 131 + level);
        config.tracer = rep_tracer;
        auto jammer =
            p_jam > 0.0 ? sim::make_reactive_jammer(p_jam) : nullptr;
        return sim::run(workload::gen_batch(batch, w, 0), factory, config,
                        std::move(jammer));
      },
      [&](int /*rep*/, sim::SimResult&& result) {
        for (const auto& job : result.jobs) {
          counter.add(job.success);
        }
      });
  return counter;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/40);
  const std::int64_t load_divisor = bench::int64_flag(
      args, "load-divisor", 256, 1, std::numeric_limits<std::int64_t>::max());
  const double p_jam = bench::double_flag(args, "stress-jam", 0.7, 0.0, 1.0);
  const int stress_batch = bench::int_flag(args, "stress-batch", 4, 1);
  const int trials = bench::int_flag(args, "stress-trials",
                                     common.quick ? 4000 : 20000, 1);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  // ---- (1) clean channel, proportional load --------------------------------
  {
    std::vector<int> levels{10, 11, 12, 13, 14, 15};
    if (common.quick) {
      levels = {10, 12, 14};
    }
    util::Table table({"lambda", "window", "jobs/batch", "trials",
                       "failure rate", "95% CI hi"});
    for (const int lambda : {1, 2, 3}) {
      core::Params params;
      params.lambda = lambda;
      params.tau = 8;
      for (const int level : levels) {
        params.min_class = level;
        const Slot w = util::pow2(level);
        const std::int64_t batch =
            std::max<std::int64_t>(w / load_divisor, 2);
        const int reps = std::max(
            2, static_cast<int>(common.reps * 16 /
                                std::max<std::int64_t>(batch, 1)));
        const auto counter =
            run_batches(params, level, batch, reps, common.seed, 0.0,
                        trace.get(), common.threads);
        const auto [lo, hi] = counter.wilson95();
        (void)hi;
        table.add_row(
            {std::to_string(lambda), util::fmt_count(w),
             util::fmt_count(batch),
             util::fmt_count(static_cast<std::int64_t>(counter.trials())),
             util::fmt(counter.failure_rate(), 4), util::fmt(1.0 - lo, 4)});
      }
    }
    bench::emit(table,
                "E7.1 / Theorem 14 — clean channel, batch load = window/" +
                    std::to_string(load_divisor) +
                    ", tau=8: failures stay below the measurement floor at "
                    "every window size",
                common, &trace);
  }

  // ---- (2) jam-stressed decay ----------------------------------------------
  {
    std::vector<int> levels{8, 9, 10, 11, 12, 13};
    if (common.quick) {
      levels = {8, 10, 12};
    }
    util::Table table({"lambda", "window", "trials", "failure rate",
                       "95% CI", "failure * w^0.5"});
    for (const int lambda : {1, 2}) {
      core::Params params;
      params.lambda = lambda;
      params.tau = 8;
      for (const int level : levels) {
        params.min_class = level;
        const int reps = std::max(2, trials / stress_batch);
        const auto counter =
            run_batches(params, level, stress_batch, reps, common.seed + 1,
                        p_jam, trace.get(), common.threads);
        const auto [lo, hi] = counter.wilson95();
        const double fail = counter.failure_rate();
        table.add_row(
            {std::to_string(lambda), util::fmt_count(util::pow2(level)),
             util::fmt_count(static_cast<std::int64_t>(counter.trials())),
             util::fmt(fail, 5),
             "[" + util::fmt(1.0 - hi, 5) + ", " + util::fmt(1.0 - lo, 5) +
                 "]",
             util::fmt(fail * std::sqrt(static_cast<double>(
                                  util::pow2(level))),
                       3)});
      }
    }
    bench::emit(table,
                "E7.2 / Lemma 13 shape — reactive jamming at p_jam=" +
                    util::fmt(p_jam, 2) +
                    " (beyond the analyzed 1/2) makes the polynomial decay "
                    "of the failure rate in the window size visible",
                common, &trace);
  }
  return 0;
}
