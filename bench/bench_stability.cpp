// E18 — sustained-load capacity. The paper proves per-job guarantees for
// γ-slack feasible inputs; the queuing-theory tradition it cites instead
// asks what *arrival rates* a protocol sustains. This harness drives each
// protocol with Poisson arrivals (window 2^12, rate ρ jobs/slot — load
// ρ·1 of the channel) and reports the delivered fraction and latency as ρ
// crosses each protocol's capacity knee.

#include <vector>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/3);
  constexpr Slot kMaxSlot = std::numeric_limits<Slot>::max();
  const Slot window = bench::int64_flag(args, "window", 1 << 12, 1, kMaxSlot);
  const Slot horizon =
      bench::int64_flag(args, "horizon", 1 << 14, window, kMaxSlot);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  core::Params params;
  params.lambda = 4;
  params.tau = 8;
  params.min_class = 8;

  std::vector<double> rates{0.01, 0.05, 0.1, 0.2, 0.4, 0.7};
  if (common.quick) {
    rates = {0.05, 0.2, 0.7};
  }

  util::Table table({"protocol", "rate (jobs/slot)", "jobs/rep",
                     "delivered", "p90 latency/window"});
  for (const std::string& name :
       {"uniform", "beb", "sawtooth", "punctual"}) {
    const auto factory = core::make_protocol(name, params);
    for (const double rate : rates) {
      util::SuccessCounter delivered;
      std::vector<double> latency_fracs;
      util::RunningStats jobs_per_rep;
      // One rep: its job count and, unless it had no jobs, its result.
      struct RepRun {
        std::size_t jobs = 0;
        sim::SimResult result;
      };
      obs::run_traced(
          common.reps, common.threads, trace.get(),
          [&](int rep, obs::Tracer* tracer) {
            util::Rng rng(common.seed * 1009 +
                          static_cast<std::uint64_t>(rep * 7 + rate * 1000));
            const bench::WorkloadSpec load{
                .kind = bench::WorkloadSpec::Kind::kPoisson,
                .window = window,
                .rate = rate,
                .horizon = horizon};
            const auto instance = bench::make_workload(load, &rng);
            RepRun out;
            out.jobs = instance.size();
            if (instance.empty()) {
              return out;
            }
            sim::SimConfig sc;
            sc.seed = rng.next_u64();
            sc.tracer = tracer;
            out.result = sim::run(instance, *factory, sc);
            return out;
          },
          [&](int /*rep*/, RepRun&& rep) {
            jobs_per_rep.add(static_cast<double>(rep.jobs));
            for (const auto& job : rep.result.jobs) {
              delivered.add(job.success);
              if (job.success) {
                latency_fracs.push_back(static_cast<double>(job.latency()) /
                                        static_cast<double>(window));
              }
            }
          });
      table.add_row({name, util::fmt(rate, 2),
                     util::fmt(jobs_per_rep.mean(), 0),
                     util::fmt(delivered.rate(), 4),
                     util::fmt(util::percentile(latency_fracs, 0.9), 3)});
    }
  }
  bench::emit(table,
              "E18 — capacity under Poisson arrivals (window 2^12): "
              "delivered fraction vs offered load",
              common, &trace);
  return 0;
}
