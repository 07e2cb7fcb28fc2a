// E16 — batch makespan. The paper positions itself against the makespan
// literature: monotone backoff (BEB) drains a batch of n in Θ(n log n),
// sawtooth is asymptotically optimal Θ(n), and ALIGNED's broadcast stage is
// engineered to drain in O(n + polylog) *active* steps once the estimate is
// in hand. This harness measures the slots needed to drain batches of
// growing size under each protocol (windows made generous so nothing
// truncates; ALOHA included as the memoryless floor).

#include <vector>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "sim/simulator.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/10);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  std::vector<std::int64_t> sizes{8, 16, 32, 64, 128};
  if (common.quick) {
    sizes = {8, 32, 128};
  }

  util::Table table({"protocol", "n", "mean makespan", "makespan / n",
                     "delivered"});
  for (const std::string& name : {"aligned", "sawtooth", "beb", "aloha"}) {
    for (const std::int64_t n : sizes) {
      // A window comfortably larger than any contender's makespan.
      const int level = util::ceil_log2(n) + 7;
      core::Params params;
      params.lambda = 2;
      params.tau = 8;
      params.min_class = level;
      const auto factory = core::make_protocol(name, params);
      util::RunningStats makespan;
      util::SuccessCounter delivered;
      obs::run_traced(
          common.reps, common.threads, trace.get(),
          [&](int rep, obs::Tracer* tracer) {
            sim::SimConfig config;
            config.seed = common.seed * 17 + static_cast<std::uint64_t>(rep);
            config.tracer = tracer;
            return sim::run(workload::gen_batch(n, util::pow2(level), 0),
                            *factory, config);
          },
          [&](int /*rep*/, sim::SimResult&& result) {
            Slot last = 0;
            for (const auto& job : result.jobs) {
              delivered.add(job.success);
              if (job.success) {
                last = std::max(last, job.success_slot + 1);
              }
            }
            makespan.add(static_cast<double>(last));
          });
      table.add_row({name, util::fmt_count(n),
                     util::fmt(makespan.mean(), 0),
                     util::fmt(makespan.mean() / static_cast<double>(n), 1),
                     util::fmt(delivered.rate(), 3)});
    }
  }
  bench::emit(table,
              "E16 — batch makespan vs n (window 128n; makespan/n flat = "
              "linear drain, growing = superlinear)",
              common, &trace);
  return 0;
}
