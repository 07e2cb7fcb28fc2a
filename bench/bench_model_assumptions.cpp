// E17 — model-assumption ablation: §1.1 states "the algorithms in this
// paper make use of collision detection". This harness quantifies which
// parts actually depend on it by re-running ALIGNED and PUNCTUAL on the
// unaware_no_cd feedback model (listeners perceive noisy slots as silent;
// transmitters still learn their own failure, ACK-style; the protocols are
// not told, so they run their collision-detection logic unchanged).
//
// Expected mechanics: ALIGNED's estimation and broadcast bookkeeping count
// *successes* only, so it keeps working; PUNCTUAL's round synchronization
// needs "two consecutive busy slots", where busy includes collisions —
// without CD, the start-marker collisions read as silence, frames
// fragment, and delivery collapses.
//
// Self-check (blocking, exit 1): ALIGNED's ablation row must equal its CD
// row exactly (delivered count and noise slots; both rows use the same
// seeds and ALIGNED reads only successes, so this is an identity), and
// PUNCTUAL's Wilson-95 upper bound without CD must lie below its Wilson-95
// lower bound with CD.

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
  const auto common = bench::parse_common(args, /*default_reps=*/10);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  util::Table table(
      {"protocol", "collision detection", "delivered", "noise slots/rep"});

  // One table row: delivery and channel noise summed over the reps.
  struct Row {
    util::SuccessCounter delivered;
    std::int64_t noise = 0;

    void add(const sim::SimResult& result) {
      delivered.add_many(static_cast<std::uint64_t>(result.successes()),
                         static_cast<std::uint64_t>(result.jobs.size()));
      noise += result.metrics.noise_slots;
    }
  };
  Row aligned_cd;
  Row aligned_off;
  Row punctual_cd;
  Row punctual_off;

  // ALIGNED on nested aligned instances.
  for (const bool cd : {true, false}) {
    core::Params p;
    p.lambda = 2;
    p.tau = 8;
    p.min_class = 10;
    const auto factory = core::aligned::make_aligned_factory(p);
    Row& row = cd ? aligned_cd : aligned_off;
    obs::run_traced(
        common.reps, common.threads, trace.get(),
        [&](int rep, obs::Tracer* tracer) {
          util::Rng rng(common.seed + static_cast<std::uint64_t>(rep));
          workload::AlignedConfig config;
          config.min_class = 10;
          config.max_class = 13;
          config.gamma = 1.0 / 256;
          config.horizon = 1 << 15;
          const auto instance = workload::gen_aligned(config, rng);
          sim::SimConfig sc;
          sc.seed = common.seed * 7 + static_cast<std::uint64_t>(rep);
          sc.feedback = cd ? sim::FeedbackModel::ternary()
                           : sim::FeedbackModel::unaware_no_cd();
          sc.tracer = tracer;
          return sim::run(instance, factory, sc);
        },
        [&](int /*rep*/, sim::SimResult&& result) { row.add(result); });
    table.add_row({"aligned", cd ? "on (paper)" : "off",
                   util::fmt(row.delivered.rate(), 4),
                   util::fmt(static_cast<double>(row.noise) / common.reps,
                             0)});
  }

  // PUNCTUAL on general instances.
  for (const bool cd : {true, false}) {
    core::Params p;
    p.lambda = 4;
    p.tau = 8;
    p.min_class = 8;
    const auto factory = core::punctual::make_punctual_factory(p);
    Row& row = cd ? punctual_cd : punctual_off;
    obs::run_traced(
        common.reps, common.threads, trace.get(),
        [&](int rep, obs::Tracer* tracer) {
          util::Rng rng(common.seed + 100 + static_cast<std::uint64_t>(rep));
          workload::GeneralConfig config;
          config.min_window = 1 << 11;
          config.max_window = 1 << 13;
          config.gamma = 1.0 / 64;
          config.horizon = 1 << 15;
          const auto instance = workload::gen_general(config, rng);
          sim::SimConfig sc;
          sc.seed = common.seed * 11 + static_cast<std::uint64_t>(rep);
          sc.feedback = cd ? sim::FeedbackModel::ternary()
                           : sim::FeedbackModel::unaware_no_cd();
          sc.tracer = tracer;
          return sim::run(instance, factory, sc);
        },
        [&](int /*rep*/, sim::SimResult&& result) { row.add(result); });
    table.add_row({"punctual", cd ? "on (paper)" : "off",
                   util::fmt(row.delivered.rate(), 4),
                   util::fmt(static_cast<double>(row.noise) / common.reps,
                             0)});
  }

  bench::emit(table,
              "E17 — collision-detection ablation: which algorithm "
              "actually needs the §1.1 assumption",
              common, &trace);

  int violations = 0;
  if (aligned_off.delivered.successes() != aligned_cd.delivered.successes() ||
      aligned_off.noise != aligned_cd.noise) {
    std::cerr << "SELF-CHECK FAIL: aligned without CD delivered "
              << aligned_off.delivered.successes() << " with "
              << aligned_off.noise << " noise slots; with CD "
              << aligned_cd.delivered.successes() << " with "
              << aligned_cd.noise << "\n";
    ++violations;
  }
  const double off_upper = punctual_off.delivered.wilson95().second;
  const double cd_lower = punctual_cd.delivered.wilson95().first;
  if (!(off_upper < cd_lower)) {
    std::cerr << "SELF-CHECK FAIL: punctual without CD: Wilson-95 upper "
              << off_upper << " is not below the CD lower bound "
              << cd_lower << "\n";
    ++violations;
  }
  if (violations > 0) {
    std::cerr << "self-check: " << violations << " violation(s)\n";
    return 1;
  }
  std::cout << "self-check: ALIGNED is unchanged without collision "
               "detection; PUNCTUAL collapses (Wilson-95 intervals "
               "disjoint)\n";
  return 0;
}
