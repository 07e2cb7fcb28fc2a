// Capture-effect / collision-cost ladder: protocol × capture strength ×
// collision cost × jammer on saturated batches (DESIGN.md §6i,
// EXPERIMENTS.md E22; Biswas–Chakraborty–Young, arXiv:2408.11275).
//
// The paper's channel is all-or-nothing: two transmitters always burn the
// slot. Dense real deployments are softer in one direction (capture: one
// of k colliders often survives, p_k = alpha^(k-1)) and harsher in the
// other (a collision costs c > 1 slots of PHY recovery). This harness
// sweeps every registered protocol (incl. nocd_robust) across both axes
// under the clear channel and the blanket/adaptive jammers from the
// robustness gauntlet. The workload, params, seed schedule, and runner are
// exactly bench_robustness_gauntlet's, so the a0/c1/clear column is the
// same cell as the gauntlet's ternary/clear/none row.
//
// Self-checks (the CI release job blocks on the exit code):
//   1. baseline identity — for every protocol, the capture:0 / cost=1 /
//      clear cell is *exactly* equal (success rate, slots, per-outcome
//      slot counts, contention moments) to an explicit ternary run of the
//      same cell, and fires zero capture wins / cost slots. This is the
//      bit-identity contract of DESIGN.md §6i measured end to end.
//   2. throughput monotone in alpha — at saturation, a stronger capture
//      effect never hurts: per protocol and per cost, success rates are
//      non-decreasing in alpha (small statistical slack), and the
//      alpha=1 endpoint clearly beats alpha=0. Protocols that estimate
//      contention from collision counts (ALIGNED, PUNCTUAL) are exempt:
//      capture perturbs their estimator itself, so their rate ordering is
//      not an invariant — the printed caveat note marks those rows.
//   3. collisions that cost more deliver less — per protocol on the clear
//      channel, the cost=3 rate never beats the cost=1 rate by more than
//      the slack (same estimator-coupled exemption), and cost=3 cells
//      actually burn cost slots (that part holds for everyone).
//   4. telemetry agreement — a dedicated traced run (local obs::Timeline
//      sink) under capture:0.7 / cost=3 shows bucket-level capture_wins
//      and cost_slots that sum exactly to the run's SimMetrics counters.
//
// Rows carry the slot-engine timing columns so
// `tools/check_perf.py --check-only --expect` can validate artifact shape
// and sweep completeness in CI.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/runner.hpp"
#include "bench_common.hpp"
#include "core/registry.hpp"
#include "obs/timeline.hpp"
#include "sim/channel.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace {

using namespace crmd;

/// One adversary configuration (mirrors the robustness gauntlet).
struct Adversary {
  std::string name;
  analysis::JammerGen gen;  // null = no jamming
};

/// Everything the self-checks need from one cell.
struct Cell {
  double rate = -1.0;
  std::int64_t slots = 0;
  sim::SimMetrics channel;
};

/// (protocol, alpha-label, cost-label, adversary) -> cell.
using Key = std::tuple<std::string, std::string, std::string, std::string>;

std::string alpha_label(double alpha) { return "a" + util::fmt(alpha, 2); }

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bench::CommonArgs common = bench::parse_common(args, /*reps=*/8);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  // Saturated batch: n = w/2 jobs in one power-of-2-aligned window — the
  // load where collisions (and therefore both physics axes) dominate.
  // Same geometry as bench_robustness_gauntlet.
  const int level = common.quick ? 9 : 10;
  const Slot window = Slot{1} << level;
  const std::int64_t batch = window / 2;
  const analysis::InstanceGen gen = [&](util::Rng&) {
    return workload::gen_batch(batch, window, 0);
  };

  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = level;

  std::vector<double> alphas = {0.0, 0.25, 0.5, 1.0};
  if (common.quick) {
    alphas = {0.0, 0.5, 1.0};
  }
  const std::vector<int> costs = {1, 3};

  const std::int64_t budget = window / 8;
  std::vector<Adversary> adversaries;
  adversaries.push_back({"clear", nullptr});
  adversaries.push_back({"blanket", [](util::Rng) {
                           return sim::make_blanket_jammer(0.3);
                         }});
  adversaries.push_back({"adaptive", [budget, window](util::Rng) {
                           return sim::make_adaptive_jammer(budget, window,
                                                            0.5);
                         }});

  util::Table table({"scenario", "jobs", "reps", "slots", "wall_ms",
                     "slots_per_sec", "success_rate", "capture_wins",
                     "cost_slots"});
  std::map<Key, Cell> cells;

  const std::vector<std::string> protocols = core::protocol_names();
  for (const std::string& name : protocols) {
    const auto info = core::protocol_info(name);
    const auto factory = core::make_protocol(name, params);
    if (!info || !factory) {
      std::cerr << "capture: unknown protocol '" << name << "'\n";
      return 1;
    }
    for (const double alpha : alphas) {
      for (const int cost : costs) {
        for (const Adversary& adversary : adversaries) {
          analysis::RunOptions options;
          options.feedback = sim::FeedbackModel::capture(alpha);
          options.collision_cost = cost;
          options.jammer_gen = adversary.gen;
          options.threads = common.threads;
          options.tracer = trace.get();

          const auto start = std::chrono::steady_clock::now();
          const analysis::ReplicationReport report =
              analysis::run_replications(gen, *factory, common.reps,
                                         common.seed, options);
          const auto stop = std::chrono::steady_clock::now();
          const double wall_ms =
              std::chrono::duration<double, std::milli>(stop - start)
                  .count();

          Cell cell;
          cell.rate = report.outcomes.overall().rate();
          cell.slots = report.channel.slots_simulated;
          cell.channel = report.channel;
          const std::string cost_name = "c" + std::to_string(cost);
          cells[{name, alpha_label(alpha), cost_name, adversary.name}] =
              cell;

          table.add_row(
              {name + "/" + alpha_label(alpha) + "/" + cost_name + "/" +
                   adversary.name,
               std::to_string(report.outcomes.jobs()),
               std::to_string(common.reps), std::to_string(cell.slots),
               util::fmt(wall_ms, 3),
               util::fmt_sci(wall_ms > 0.0
                                 ? static_cast<double>(cell.slots) /
                                       (wall_ms / 1e3)
                                 : 0.0,
                             4),
               util::fmt(cell.rate, 4),
               std::to_string(report.channel.capture_wins),
               std::to_string(report.channel.collision_cost_slots)});
        }
      }
    }
  }

  // Annotate the estimator caveat the registry advertises (DESIGN.md §6i):
  // these protocols count collisions to size contention, and capture makes
  // collisions leak successes.
  for (const auto& info : core::protocol_catalog()) {
    if (info.estimates_from_collisions) {
      std::cout << "(note: " << info.name
                << " estimates contention from collision counts; capture "
                   "biases its samples optimistically)\n";
    }
  }

  bench::emit(table,
              "Capture / collision-cost ladder — protocol x alpha x cost x "
              "jammer, saturated batch (DESIGN.md §6i, EXPERIMENTS.md E22)",
              common, &trace);

  // ---- self-checks (see file comment) --------------------------------------
  int violations = 0;
  const auto fail = [&](const std::string& what) {
    std::cerr << "SELF-CHECK FAIL: " << what << "\n";
    ++violations;
  };
  const auto cell = [&](const std::string& proto, const std::string& alpha,
                        const std::string& cost,
                        const std::string& adversary) -> const Cell& {
    static const Cell missing;
    const auto it = cells.find({proto, alpha, cost, adversary});
    return it == cells.end() ? missing : it->second;
  };
  // Statistical slack for the monotonicity checks: adjacent alpha rungs on
  // protocols with few collisions (e.g. an elected leader serializing the
  // channel) can tie or jitter; the endpoint check below has no such
  // excuse.
  const double kSlack = 0.02;
  // Rate ordering is only an invariant for protocols whose control loop is
  // decoupled from the physics being swept. ALIGNED/PUNCTUAL size contention
  // from collision counts, so capture (collisions leak successes) and
  // channel freezing (collisions stretch) perturb the estimator itself —
  // their rates can legitimately move either way (the caveat note above).
  const auto estimator_coupled = [](const std::string& name) {
    const auto info = core::protocol_info(name);
    return info.has_value() && info->estimates_from_collisions;
  };

  // 1. Baseline identity: capture:0 / cost=1 / clear == explicit ternary.
  for (const std::string& name : protocols) {
    const auto factory = core::make_protocol(name, params);
    analysis::RunOptions options;
    options.feedback = sim::FeedbackModel::ternary();
    options.threads = common.threads;
    const analysis::ReplicationReport ternary = analysis::run_replications(
        gen, *factory, common.reps, common.seed, options);
    const Cell& c0 = cell(name, alpha_label(0.0), "c1", "clear");
    if (c0.rate < 0.0) {
      fail(name + ": capture:0/c1/clear cell missing from the sweep");
      continue;
    }
    const sim::SimMetrics& a = c0.channel;
    const sim::SimMetrics& b = ternary.channel;
    const bool identical =
        c0.rate == ternary.outcomes.overall().rate() &&
        a.slots_simulated == b.slots_simulated &&
        a.silent_slots == b.silent_slots &&
        a.success_slots == b.success_slots &&
        a.noise_slots == b.noise_slots &&
        a.data_successes == b.data_successes &&
        a.contention.mean() == b.contention.mean() &&
        a.contention.variance() == b.contention.variance();
    if (!identical) {
      fail(name + ": capture:0/c1 is not bit-identical to ternary (rate " +
           util::fmt(c0.rate, 6) + " vs " +
           util::fmt(ternary.outcomes.overall().rate(), 6) + ", slots " +
           std::to_string(a.slots_simulated) + " vs " +
           std::to_string(b.slots_simulated) + ")");
    }
    if (a.capture_wins != 0 || a.collision_cost_slots != 0) {
      fail(name + ": capture:0/c1 fired " +
           std::to_string(a.capture_wins) + " capture win(s) and " +
           std::to_string(a.collision_cost_slots) +
           " cost slot(s); both must be zero");
    }
  }

  // 2. Throughput monotone in alpha at saturation.
  for (const std::string& name : protocols) {
    if (estimator_coupled(name)) {
      continue;
    }
    for (const int cost : costs) {
      const std::string cost_name = "c" + std::to_string(cost);
      for (std::size_t i = 0; i + 1 < alphas.size(); ++i) {
        const double lo = cell(name, alpha_label(alphas[i]), cost_name,
                               "clear")
                              .rate;
        const double hi = cell(name, alpha_label(alphas[i + 1]), cost_name,
                               "clear")
                              .rate;
        if (lo < 0.0 || hi < 0.0 || hi + kSlack < lo) {
          fail(name + "/" + cost_name + ": success rate not monotone in "
               "alpha (" + alpha_label(alphas[i]) + " -> " +
               util::fmt(lo, 4) + ", " + alpha_label(alphas[i + 1]) +
               " -> " + util::fmt(hi, 4) + ")");
        }
      }
      const double lo = cell(name, alpha_label(alphas.front()), cost_name,
                             "clear")
                            .rate;
      const double hi = cell(name, alpha_label(alphas.back()), cost_name,
                             "clear")
                            .rate;
      if (hi < lo + 0.05) {
        fail(name + "/" + cost_name + ": alpha=1 rate " + util::fmt(hi, 4) +
             " does not clearly beat alpha=0 rate " + util::fmt(lo, 4) +
             " at saturation — capture is not biting");
      }
    }
  }

  // 3. Costly collisions deliver less, and cost slots actually burn.
  for (const std::string& name : protocols) {
    for (const double alpha : alphas) {
      const Cell& c1 = cell(name, alpha_label(alpha), "c1", "clear");
      const Cell& c3 = cell(name, alpha_label(alpha), "c3", "clear");
      if (!estimator_coupled(name) && c3.rate > c1.rate + kSlack) {
        fail(name + "/" + alpha_label(alpha) + ": cost=3 rate " +
             util::fmt(c3.rate, 4) + " beats cost=1 rate " +
             util::fmt(c1.rate, 4) + " — freezing the channel helped?");
      }
      if (alpha < 1.0 && c3.channel.collision_cost_slots <= 0) {
        fail(name + "/" + alpha_label(alpha) +
             ": cost=3 on a saturated batch burned zero cost slots");
      }
    }
  }

  // 4. Timeline telemetry agrees with the channel counters.
  {
    obs::Tracer tracer;
    auto timeline = std::make_shared<obs::Timeline>(64);
    tracer.add_sink(timeline);
    const auto beb = core::make_protocol("beb", params);
    sim::SimConfig sc;
    sc.seed = common.seed * 131 + 7;
    sc.feedback = sim::FeedbackModel::capture(0.7);
    sc.collision_cost = 3;
    sc.tracer = &tracer;
    const sim::SimResult result =
        sim::run(workload::gen_batch(batch, window, 0), *beb, sc);
    tracer.close();
    std::int64_t bucket_wins = 0;
    std::int64_t bucket_costs = 0;
    for (std::size_t i = 0; i < timeline->bucket_count(); ++i) {
      bucket_wins += timeline->bucket(i).capture_wins;
      bucket_costs += timeline->bucket(i).cost_slots;
    }
    if (result.metrics.capture_wins <= 0 ||
        result.metrics.collision_cost_slots <= 0) {
      fail("telemetry: the capture:0.7/cost=3 probe fired no capture wins "
           "or cost slots (wins " +
           std::to_string(result.metrics.capture_wins) + ", cost slots " +
           std::to_string(result.metrics.collision_cost_slots) + ")");
    }
    if (bucket_wins != result.metrics.capture_wins ||
        bucket_costs != result.metrics.collision_cost_slots) {
      fail("telemetry: timeline buckets (wins " +
           std::to_string(bucket_wins) + ", cost slots " +
           std::to_string(bucket_costs) +
           ") disagree with SimMetrics (wins " +
           std::to_string(result.metrics.capture_wins) + ", cost slots " +
           std::to_string(result.metrics.collision_cost_slots) + ")");
    }
  }

  if (violations > 0) {
    std::cerr << "self-check: " << violations
              << " capture-ladder violation(s)\n";
    return 1;
  }
  std::cout << "self-check: capture ladder holds (capture:0/cost=1 "
               "bit-identical to ternary; throughput monotone in alpha at "
               "saturation; costly collisions never help; timeline "
               "telemetry matches the channel counters)\n";
  return 0;
}
