// E15 — delivery-latency profiles. The paper's guarantee is binary (meet
// the window or not), but a deployment also cares *when* inside the window
// messages land: deadline-aware protocols spread deliveries across the
// window by design (pecking order, rounds), while greedy backoff front-
// loads them. This harness reports latency/window percentiles per
// protocol on the same instances.

#include <vector>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/8);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  core::Params params;
  params.lambda = 4;
  params.tau = 8;
  params.min_class = 8;

  util::Table table({"protocol", "delivered", "p50 latency/window",
                     "p90", "p99", "max"});
  for (const std::string& name :
       {"uniform", "beb", "sawtooth", "aloha", "punctual"}) {
    const auto factory = core::make_protocol(name, params);
    std::vector<double> fracs;
    util::SuccessCounter delivered;
    obs::run_traced(
        common.reps, common.threads, trace.get(),
        [&](int rep, obs::Tracer* tracer) {
          util::Rng rng(common.seed + static_cast<std::uint64_t>(rep));
          workload::GeneralConfig config;
          config.min_window = 1 << 10;
          config.max_window = 1 << 13;
          config.gamma = 1.0 / 32;
          config.horizon = 1 << 15;
          const auto instance = workload::gen_general(config, rng);
          sim::SimConfig sc;
          sc.seed = common.seed * 3 + static_cast<std::uint64_t>(rep);
          sc.tracer = tracer;
          return sim::run(instance, *factory, sc);
        },
        [&](int /*rep*/, sim::SimResult&& result) {
          for (const auto& job : result.jobs) {
            delivered.add(job.success);
            if (job.success) {
              fracs.push_back(static_cast<double>(job.latency()) /
                              static_cast<double>(job.window()));
            }
          }
        });
    table.add_row({name, util::fmt(delivered.rate(), 4),
                   util::fmt(util::percentile(fracs, 0.50), 3),
                   util::fmt(util::percentile(fracs, 0.90), 3),
                   util::fmt(util::percentile(fracs, 0.99), 3),
                   util::fmt(util::percentile(fracs, 1.0), 3)});
  }
  bench::emit(table,
              "E15 — delivery latency as a fraction of the window "
              "(general gamma=1/32 instances)",
              common, &trace);
  return 0;
}
