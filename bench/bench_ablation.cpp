// E14 — ablations over the constants the paper leaves symbolic:
//   (a) τ — estimate inflation: reliability vs channel time on a batch
//       (τ=64 is the proof's value; smaller τ trades safety margin for
//       makespan);
//   (b) λ — repetition: failure rate vs active steps;
//   (c) PUNCTUAL's anarchist-fallback-on-truncation extension (off =
//       paper-faithful giving up).

#include <vector>

#include "analysis/runner.hpp"
#include "bench_common.hpp"
#include "core/aligned/protocol.hpp"
#include "core/punctual/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/15);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);
  const analysis::RunOptions options = bench::sweep_options(common, trace);

  // ---- (a) τ sweep on an ALIGNED batch -------------------------------------
  {
    const int level = 13;
    const std::int64_t batch = 16;
    util::Table table({"tau", "delivery rate", "mean makespan (slots)",
                       "scheduled broadcast steps @ est"});
    for (const std::int64_t tau : {2LL, 8LL, 64LL}) {
      core::Params p;
      p.lambda = 2;
      p.tau = tau;
      p.min_class = level;
      const auto factory = core::aligned::make_aligned_factory(p);
      util::SuccessCounter delivered;
      util::RunningStats makespan;
      obs::run_traced(
          common.reps, common.threads, trace.get(),
          [&](int rep, obs::Tracer* tracer) {
            sim::SimConfig config;
            config.seed = common.seed * 101 + static_cast<std::uint64_t>(rep);
            config.tracer = tracer;
            return sim::run(workload::gen_batch(batch, Slot{1} << level, 0),
                            factory, config);
          },
          [&](int /*rep*/, sim::SimResult&& result) {
            Slot last = 0;
            for (const auto& job : result.jobs) {
              delivered.add(job.success);
              if (job.success) {
                last = std::max(last, job.success_slot);
              }
            }
            makespan.add(static_cast<double>(last));
          });
      // Broadcast budget if the estimate lands at tau*2^ceil(log2 batch).
      const std::int64_t est = tau * 2 * batch;
      table.add_row({std::to_string(tau), util::fmt(delivered.rate(), 4),
                     util::fmt(makespan.mean(), 0),
                     util::fmt_count(p.broadcast_steps(level, est))});
    }
    bench::emit(table,
                "E14a — tau ablation (ALIGNED batch of 16, window 2^13): "
                "bigger tau buys safety margin with channel time",
                common, &trace);
  }

  // ---- (b) λ sweep under jamming stress ------------------------------------
  // λ multiplies every stage, so on an uncontended batch all λ succeed; the
  // tradeoff shows under a strong reactive jammer (p=0.7, beyond the
  // analyzed 1/2): failure drops roughly exponentially in λ while the
  // channel time spent grows linearly.
  {
    const int level = 12;
    const std::int64_t batch = 4;
    const int trials = common.quick ? 4000 : 20000;
    util::Table table({"lambda", "trials", "failure rate",
                       "scheduled steps (Lemma 6, est=64)"});
    for (const int lambda : {1, 2, 3, 4}) {
      core::Params p;
      p.lambda = lambda;
      p.tau = 8;
      p.min_class = level;
      const auto factory = core::aligned::make_aligned_factory(p);
      util::SuccessCounter counter;
      const int reps = std::max(2, trials / static_cast<int>(batch));
      obs::run_traced(
          reps, common.threads, trace.get(),
          [&](int rep, obs::Tracer* tracer) {
            sim::SimConfig config;
            config.seed = common.seed * 3 + static_cast<std::uint64_t>(rep);
            config.tracer = tracer;
            return sim::run(workload::gen_batch(batch, Slot{1} << level, 0),
                            factory, config, sim::make_reactive_jammer(0.7));
          },
          [&](int /*rep*/, sim::SimResult&& result) {
            for (const auto& job : result.jobs) {
              counter.add(job.success);
            }
          });
      table.add_row(
          {std::to_string(lambda),
           util::fmt_count(static_cast<std::int64_t>(counter.trials())),
           util::fmt(counter.failure_rate(), 5),
           util::fmt_count(p.total_steps(level, 64))});
    }
    bench::emit(table,
                "E14b — lambda ablation (ALIGNED batch of 4, window 2^12, "
                "reactive jam p=0.7): reliability vs channel time",
                common, &trace);
  }

  // ---- (c) PUNCTUAL anarchist fallback -------------------------------------
  {
    util::Table table({"truncation fallback", "delivered", "worst window"});
    for (const bool fallback : {false, true}) {
      core::Params p;
      p.lambda = 4;
      p.tau = 8;
      p.min_class = 8;
      // Raised claim rate so jobs actually follow leaders (and hence can be
      // truncated mid-follow — the case the toggle governs).
      p.pullback_prob_scale = 512.0;
      p.anarchist_fallback_on_truncation = fallback;
      analysis::InstanceGen gen = [&](util::Rng& rng) {
        workload::GeneralConfig config;
        config.min_window = 1 << 10;
        config.max_window = 1 << 13;
        config.gamma = 1.0 / 16;  // tighter slack: truncations do happen
        config.horizon = 1 << 15;
        return workload::gen_general(config, rng);
      };
      const auto report = analysis::run_replications(
          gen, core::punctual::make_punctual_factory(p), common.reps,
          common.seed, options);
      double worst = 1.0;
      for (const auto& [w, bucket] : report.outcomes.by_window()) {
        worst = std::min(worst, bucket.deadline_met.rate());
      }
      table.add_row({fallback ? "anarchist (extension)"
                              : "give up (paper)",
                     util::fmt(report.outcomes.overall().rate(), 4),
                     util::fmt(worst, 4)});
    }
    bench::emit(table,
                "E14c — PUNCTUAL truncation-fallback extension vs the "
                "paper's give-up rule (gamma=1/16 general instances)",
                common, &trace);
  }

  // ---- (d) pecking order on/off --------------------------------------------
  // §3's "always defer to smaller windows" rule, ablated: without it,
  // nested classes run their estimation/broadcast concurrently and collide.
  // Measured on the E6 configuration where the paper's rule achieves zero
  // failures (gamma = 1/256).
  {
    util::Table table({"pecking order", "failure rate",
                       "worst window-size failure", "noise slots/rep"});
    for (const bool pecking : {true, false}) {
      core::Params p;
      p.lambda = 2;
      p.tau = 8;
      p.min_class = 10;
      p.pecking_order = pecking;
      analysis::InstanceGen gen = [&](util::Rng& rng) {
        workload::AlignedConfig config;
        config.min_class = p.min_class;
        config.max_class = 14;
        config.gamma = 1.0 / 256;
        config.horizon = 1 << 16;
        return workload::gen_aligned(config, rng);
      };
      const auto report = analysis::run_replications(
          gen, core::aligned::make_aligned_factory(p), common.reps,
          common.seed, options);
      double worst = 0.0;
      for (const auto& [w, bucket] : report.outcomes.by_window()) {
        worst = std::max(worst, bucket.deadline_met.failure_rate());
      }
      table.add_row(
          {pecking ? "on (paper)" : "off",
           util::fmt(report.outcomes.overall().failure_rate(), 4),
           util::fmt(worst, 4),
           util::fmt_count(report.channel.noise_slots /
                           std::max(1, report.replications))});
    }
    bench::emit(table,
                "E14d — pecking-order ablation on aligned laminar "
                "instances (classes 10..14, gamma=1/256; the paper's rule "
                "is failure-free here)",
                common, &trace);
  }
  return 0;
}
