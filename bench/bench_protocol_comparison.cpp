// E13 — the paper's motivation (§1): classic backoff has no deadline
// awareness and starves jobs; a deadline-aware protocol should deliver
// (nearly) everything a centralized EDF scheduler could.
//
// Two workloads:
//   (a) γ-slack feasible general instances — overall and worst-window-size
//       delivery per protocol;
//   (b) the Lemma 5 starvation instance — delivery of the most urgent
//       (first sqrt(n)) jobs per protocol.
// Protocols: UNIFORM, BEB, sawtooth, window-scaled ALOHA, PUNCTUAL, and
// the EDF ceiling.

#include <cmath>
#include <functional>
#include <vector>

#include "analysis/runner.hpp"
#include "baselines/aloha.hpp"
#include "baselines/beb.hpp"
#include "baselines/edf.hpp"
#include "baselines/sawtooth.hpp"
#include "bench_common.hpp"
#include "core/punctual/protocol.hpp"
#include "core/uniform.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"

namespace {

using namespace crmd;

struct Contender {
  std::string name;
  sim::ProtocolFactory factory;
};

std::vector<Contender> contenders() {
  core::Params uniform_params;
  uniform_params.uniform_attempts = 1;

  core::Params punctual_params;
  punctual_params.lambda = 4;
  punctual_params.tau = 8;
  punctual_params.min_class = 8;

  return {
      {"uniform", core::make_uniform_factory(uniform_params)},
      {"beb", baselines::make_beb_factory()},
      {"sawtooth", baselines::make_sawtooth_factory()},
      {"aloha (2/w)", baselines::make_aloha_window_factory(2.0)},
      {"punctual", core::punctual::make_punctual_factory(punctual_params)},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/10);
  const std::int64_t n = bench::int_flag(args, "starvation-n", 1024, 1);

  // ---- (a) general slack-feasible instances -------------------------------
  const analysis::InstanceGen gen = [&](util::Rng& rng) {
    workload::GeneralConfig config;
    config.min_window = 1 << 10;
    config.max_window = 1 << 13;
    config.gamma = 1.0 / 32;
    config.horizon = 1 << 15;
    config.pow2_windows = true;
    return workload::gen_general(config, rng);
  };

  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);
  util::Table table_a({"protocol", "delivered", "worst window-size",
                       "smallest-window delivery", "mean latency",
                       "mean tx/job (energy)"});
  const analysis::RunOptions options = bench::sweep_options(common, trace);
  for (const auto& contender : contenders()) {
    const auto report = analysis::run_replications(
        gen, contender.factory, common.reps, common.seed, options);
    double worst = 1.0;
    double smallest_rate = 1.0;
    util::RunningStats latency;
    bool first_bucket = true;
    for (const auto& [w, bucket] : report.outcomes.by_window()) {
      worst = std::min(worst, bucket.deadline_met.rate());
      if (first_bucket) {
        smallest_rate = bucket.deadline_met.rate();
        first_bucket = false;
      }
      latency.merge(bucket.latency);
    }
    table_a.add_row({contender.name,
                     util::fmt(report.outcomes.overall().rate(), 4),
                     util::fmt(worst, 4), util::fmt(smallest_rate, 4),
                     util::fmt(latency.mean(), 0),
                     util::fmt(report.outcomes.accesses().mean(), 1)});
  }
  // EDF ceiling (centralized; delivers everything on feasible instances),
  // on the instances the sweeps above simulated.
  {
    util::SuccessCounter edf_counter;
    for (int rep = 0; rep < common.reps; ++rep) {
      util::Rng rng = analysis::replication_rng(common.seed, rep);
      const auto instance = gen(rng);
      edf_counter.add_many(
          static_cast<std::uint64_t>(baselines::edf_successes(instance)),
          static_cast<std::uint64_t>(instance.size()));
    }
    table_a.add_row({"edf (centralized ceiling)",
                     util::fmt(edf_counter.rate(), 4), "-", "-", "-", "1.0"});
  }
  bench::emit(table_a,
              "E13a / §1 — protocol comparison on gamma=1/32 general "
              "instances (windows 2^10..2^13)",
              common, &trace);

  // ---- (b) the starvation instance ----------------------------------------
  const double gamma = 0.25;
  const auto instance = workload::gen_starvation(n, gamma);
  const auto cohort = static_cast<std::int64_t>(std::sqrt(n));

  util::Table table_b(
      {"protocol", "first sqrt(n) jobs", "overall", "reps"});
  auto run_starvation = [&](const sim::ProtocolFactory& factory,
                            const std::string& name) {
    util::SuccessCounter first;
    util::SuccessCounter overall;
    const int reps = std::max(2, common.reps);
    obs::run_traced(
        reps, common.threads, trace.get(),
        [&](int rep, obs::Tracer* tracer) {
          sim::SimConfig config;
          config.seed = common.seed * 7 + static_cast<std::uint64_t>(rep);
          config.tracer = tracer;
          return sim::run(instance, factory, config);
        },
        [&](int /*rep*/, sim::SimResult&& result) {
          for (std::size_t i = 0; i < result.jobs.size(); ++i) {
            overall.add(result.jobs[i].success);
            if (static_cast<std::int64_t>(i) < cohort) {
              first.add(result.jobs[i].success);
            }
          }
        });
    table_b.add_row({name, util::fmt(first.rate(), 4),
                     util::fmt(overall.rate(), 4), std::to_string(reps)});
  };
  for (const auto& contender : contenders()) {
    run_starvation(contender.factory, contender.name);
  }
  {
    const auto edf = baselines::edf_schedule(instance);
    std::int64_t first_ok = 0;
    std::int64_t all_ok = 0;
    for (std::size_t i = 0; i < edf.size(); ++i) {
      all_ok += edf[i].success ? 1 : 0;
      if (static_cast<std::int64_t>(i) < cohort) {
        first_ok += edf[i].success ? 1 : 0;
      }
    }
    table_b.add_row({"edf (centralized ceiling)",
                     util::fmt(static_cast<double>(first_ok) /
                                   static_cast<double>(cohort),
                               4),
                     util::fmt(static_cast<double>(all_ok) /
                                   static_cast<double>(n),
                               4),
                     "1"});
  }
  bench::emit(table_b,
              "E13b / Lemma 5 workload — who starves the urgent jobs "
              "(n=" + std::to_string(n) + ", w_j = 4j)",
              common, &trace);

  // ---- (c) periodic industrial traffic (the paper's motivation) -----------
  {
    const analysis::InstanceGen periodic_gen = [&](util::Rng& rng) {
      const auto flows = workload::gen_periodic_flows(
          24, /*min_period=*/1 << 10, /*max_period=*/1 << 13,
          /*gamma=*/1.0 / 32, /*fill=*/0.9, rng);
      return workload::gen_periodic(flows, 1 << 15);
    };
    util::Table table_c({"protocol", "delivered", "worst window-size",
                         "p99-style worst job latency/window"});
    for (const auto& contender : contenders()) {
      const auto report = analysis::run_replications(
          periodic_gen, contender.factory, common.reps, common.seed, options);
      double worst = 1.0;
      double worst_latency_frac = 0.0;
      for (const auto& [w, bucket] : report.outcomes.by_window()) {
        worst = std::min(worst, bucket.deadline_met.rate());
        if (bucket.latency.count() > 0) {
          worst_latency_frac =
              std::max(worst_latency_frac,
                       bucket.latency.max() / static_cast<double>(w));
        }
      }
      table_c.add_row({contender.name,
                       util::fmt(report.outcomes.overall().rate(), 4),
                       util::fmt(worst, 4),
                       util::fmt(worst_latency_frac, 3)});
    }
    bench::emit(table_c,
                "E13c / §1 motivation — periodic WirelessHART-style flows "
                "(24 flows, periods 2^10..2^13, gamma=1/32)",
                common, &trace);
  }
  return 0;
}
