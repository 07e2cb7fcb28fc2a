// E10 — Lemma 17: any set S of same-window jobs with |S| >= w/log³w elects
// a leader w.h.p. during the pullback stage.
//
// At the paper's claim probability 1/(w log³w) the election only fires for
// asymptotically large windows, so the harness sweeps both the batch size
// |S| and the claim-probability scale s (paper: s = 1), reporting the
// fraction of runs in which a leader emerged and the mean election slot.
// The monotone rise with |S|·s is the lemma's threshold behaviour made
// visible at laptop scale.

#include <vector>

#include "bench_common.hpp"
#include "core/punctual/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/25);
  const int level = bench::int_flag(args, "level", 12, 1, 40);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);
  const Slot w = Slot{1} << level;

  const std::vector<std::int64_t> batch_sizes{1, 4, 16, 64, 256};
  const std::vector<double> scales{1.0, 64.0, 512.0};

  util::Table table({"claim scale s", "|S|", "expected claims/run",
                     "P[leader elected]", "mean first-claim slot",
                     "delivery rate"});
  for (const double scale : scales) {
    core::Params params;
    params.lambda = 2;
    params.tau = 8;
    params.min_class = 8;
    params.pullback_prob_scale = scale;
    params.pullback_window_frac = 0.25;
    const auto factory = core::punctual::make_punctual_factory(params);
    for (const std::int64_t batch : batch_sizes) {
      util::SuccessCounter elected;
      util::RunningStats first_claim_slot;
      util::SuccessCounter delivered;
      // One rep: the slot of the first successful leader claim, if any,
      // and the run's result.
      struct RepClaim {
        Slot first_claim = kNoSlot;
        sim::SimResult result;
      };
      obs::run_traced(
          common.reps, common.threads, trace.get(),
          [&](int rep, obs::Tracer* tracer) {
            sim::SimConfig config;
            config.seed = common.seed * 104729 +
                          static_cast<std::uint64_t>(rep * 13 + batch);
            config.tracer = tracer;
            RepClaim out;
            sim::Simulation sim(workload::gen_batch(batch, w, 0), factory,
                                config);
            sim.set_observer([&](const sim::SlotRecord& rec,
                                 std::span<const sim::Transmission>) {
              if (out.first_claim == kNoSlot &&
                  rec.outcome == sim::SlotOutcome::kSuccess &&
                  rec.success_kind == sim::MessageKind::kLeaderClaim) {
                out.first_claim = rec.slot;
              }
            });
            out.result = sim.finish();
            return out;
          },
          [&](int /*rep*/, RepClaim&& rep) {
            elected.add(rep.first_claim != kNoSlot);
            if (rep.first_claim != kNoSlot) {
              first_claim_slot.add(static_cast<double>(rep.first_claim));
            }
            delivered.add_many(
                static_cast<std::uint64_t>(rep.result.successes()),
                static_cast<std::uint64_t>(rep.result.jobs.size()));
          });
      // Expected successful-claim count over the pullback: |S| · elections
      // · p · P[nobody else claims] — report the first-order |S|·L·p.
      core::Params probe;
      probe.pullback_prob_scale = scale;
      probe.pullback_window_frac = 0.25;
      probe.lambda = 2;
      const double expected =
          static_cast<double>(batch) *
          static_cast<double>(probe.pullback_elections(w)) *
          probe.pullback_tx_prob(w);
      table.add_row({util::fmt(scale, 0), util::fmt_count(batch),
                     util::fmt(expected, 3), util::fmt(elected.rate(), 3),
                     elected.successes() > 0
                         ? util::fmt(first_claim_slot.mean(), 0)
                         : "-",
                     util::fmt(delivered.rate(), 3)});
    }
  }
  bench::emit(table,
              "E10 / Lemma 17 — leader election vs batch size and claim "
              "scale (window 2^" +
                  std::to_string(level) +
                  "; paper scale s=1 needs asymptotic windows — the "
                  "documented constants gap)",
              common, &trace);
  return 0;
}
