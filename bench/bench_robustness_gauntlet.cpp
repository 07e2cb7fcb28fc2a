// Adversarial robustness gauntlet: protocol × feedback model × jammer ×
// fault plan on saturated batches (DESIGN.md §6g, EXPERIMENTS.md E20).
//
// E19 measured the cost of losing collision detection for the paper's
// protocols: ALIGNED/PUNCTUAL fall back to blind anarchist schedules and
// pay ~100x on `collision_as_silence`. The NOCD family (core/nocd) closes
// that gap with success-only inference, and its robust variant adds
// jamming tolerance. This gauntlet is the end-to-end check: every cell
// runs a saturated batch (n = w/2, the load where feedback actually
// matters — see bench_feedback_models.cpp) under one (protocol, feedback
// model, adversary, fault plan) combination and reports deadline-success
// rates.
//
// Self-checks (the CI release job blocks on the exit code):
//   1. no-CD parity — for each no_cd_native protocol, the unjammed
//      fault-free `collision_as_silence` rate matches its own ternary
//      baseline within a small constant factor (success-only inference
//      makes the trajectories identical, so this is ~exact), and the
//      baseline itself is nontrivial;
//   2. the gap is real — ALIGNED's unjammed `collision_as_silence` rate
//      stays >= 10x below its ternary rate (if the blind fallback ever
//      catches up, E19/E20's story — and NOCD's reason to exist — changed
//      and the docs must be revisited);
//   3. jamming tolerance — NOCD-ROBUST on `collision_as_silence` keeps a
//      constant fraction of its unjammed rate under the budgeted and
//      adaptive adversaries;
//   4. never stalls — NOCD-ROBUST delivers under every gauntlet cell
//      (every jammer and the crash/restart fault plan) on every model it
//      runs: no cell drives it to zero.
//
//   5. timeline rebound — a dedicated traced run (local obs::Timeline
//      sink) puts NOCD-ROBUST under a hard jam window in the middle of
//      its deadline window and checks the slot-resolved telemetry: the
//      jammed region shows zero successes, and once the jam lifts the
//      protocol's transmit attempts and successes *rebound* instead of
//      stalling — the time-resolved shape behind check 3's scalar.
//
// Rows carry the slot-engine timing columns (scenario, jobs, slots,
// wall_ms, slots_per_sec) so `tools/check_perf.py --check-only --expect`
// can validate both the artifact shape and sweep completeness.
// --collision-cost=c (default 1, the paper's channel) applies to every
// sweep cell.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/runner.hpp"
#include "bench_common.hpp"
#include "core/registry.hpp"
#include "obs/timeline.hpp"
#include "sim/channel.hpp"
#include "sim/faults.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace {

using namespace crmd;

/// One adversary configuration in the gauntlet.
struct Adversary {
  std::string name;
  analysis::JammerGen gen;  // null = no jamming
};

/// One fault-plan configuration.
struct Faults {
  std::string name;
  sim::FaultPlan plan;
};

/// (protocol, model, adversary, faults) -> success rate.
using Key = std::tuple<std::string, std::string, std::string, std::string>;

/// Deterministic hard jam over [from, to): every slot in the interval is
/// jammed with certainty, nothing outside it. Used by self-check 5, where
/// the *boundary* of the outage must be sharp so the timeline's jammed /
/// post-jam regions are unambiguous.
class WindowedJammer final : public sim::Jammer {
 public:
  WindowedJammer(Slot from, Slot to) : from_(from), to_(to) {}
  [[nodiscard]] bool wants_jam(Slot slot, sim::SlotOutcome,
                               const sim::Message*) override {
    return slot >= from_ && slot < to_;
  }
  [[nodiscard]] double p_jam() const noexcept override { return 1.0; }

 private:
  Slot from_;
  Slot to_;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bench::CommonArgs common = bench::parse_common(args, /*reps=*/8);
  // A perceived collision freezes the channel for c-1 extra slots
  // (SimConfig::collision_cost); 1 is the paper's channel.
  const int collision_cost = bench::int_flag(args, "collision-cost", 1, 1);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  // Saturated batch: n = w/2 jobs sharing one power-of-2-aligned window
  // (valid for every protocol; the load where the feedback/robustness
  // story is visible — see bench_feedback_models.cpp).
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

  const std::vector<std::string> protocols = {"aligned", "punctual", "nocd",
                                              "nocd_robust"};

  std::vector<sim::FeedbackModel> models = {
      sim::FeedbackModel::ternary(),
      sim::FeedbackModel::collision_as_silence(),
      sim::FeedbackModel::noisy(0.05),
  };
  if (!common.quick) {
    models.insert(models.begin() + 1, sim::FeedbackModel::binary_ack());
  }

  // The adversary ladder: blanket (dense oblivious), budgeted-reactive
  // (energy-constrained, jams would-be successes), adaptive (budgeted,
  // spends by message value). Budgets are w/8 attempts per w-slot window —
  // enough to erase a third of a saturated channel's successes, not enough
  // to blanket it — at the paper's p_jam <= 1/2 (§3 analyzes ALIGNED only
  // up to that density; above it no protocol retains throughput, and the
  // gauntlet's point is differentiation, not annihilation).
  const std::int64_t budget = window / 8;
  std::vector<Adversary> adversaries;
  adversaries.push_back({"clear", nullptr});
  adversaries.push_back({"blanket", [](util::Rng) {
                           return sim::make_blanket_jammer(0.3);
                         }});
  adversaries.push_back(
      {"budgeted", [budget, window](util::Rng) {
         return sim::make_budgeted_jammer(sim::make_reactive_jammer(0.5),
                                          budget, window);
       }});
  adversaries.push_back({"adaptive", [budget, window](util::Rng) {
                           return sim::make_adaptive_jammer(budget, window,
                                                            0.5);
                         }});

  std::vector<Faults> fault_plans;
  fault_plans.push_back({"none", {}});
  {
    // Crash/restart plus a trickle of feedback loss: the composition the
    // never-stall claim is about.
    sim::FaultPlan plan;
    plan.crash_rate = 0.002;
    plan.crash_permanent_frac = 0.25;
    plan.stall_min = 8;
    plan.stall_max = 64;
    plan.feedback_loss_rate = 0.01;
    fault_plans.push_back({"crashy", plan});
  }

  util::Table table({"scenario", "jobs", "reps", "slots", "wall_ms",
                     "slots_per_sec", "success_rate", "faults_injected"});
  std::map<Key, double> rates;

  for (const std::string& name : protocols) {
    const auto info = core::protocol_info(name);
    const auto factory = core::make_protocol(name, params);
    if (!info || !factory) {
      std::cerr << "gauntlet: unknown protocol '" << name << "'\n";
      return 1;
    }
    for (const sim::FeedbackModel& model : models) {
      if (!info->supports(model.caps()) &&
          !info->adapts_to_degraded_channel) {
        continue;  // no registered protocol hits this today (see registry)
      }
      for (const Adversary& adversary : adversaries) {
        for (const Faults& faults : fault_plans) {
          analysis::RunOptions options;
          options.feedback = model;
          options.collision_cost = collision_cost;
          options.jammer_gen = adversary.gen;
          options.faults = faults.plan;
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
          const double rate = report.outcomes.overall().rate();
          const std::int64_t slots = report.channel.slots_simulated;
          rates[{name, model.spec(), adversary.name, faults.name}] = rate;

          table.add_row(
              {name + "/" + model.spec() + "/" + adversary.name + "/" +
                   faults.name,
               std::to_string(report.outcomes.jobs()),
               std::to_string(common.reps), std::to_string(slots),
               util::fmt(wall_ms, 3),
               util::fmt_sci(wall_ms > 0.0 ? static_cast<double>(slots) /
                                                 (wall_ms / 1e3)
                                           : 0.0,
                             4),
               util::fmt(rate, 4),
               std::to_string(report.channel.faults_injected)});
        }
      }
    }
  }

  bench::emit(table,
              "Adversarial robustness gauntlet — protocol x feedback model "
              "x jammer x fault plan, saturated batch (DESIGN.md §6g, "
              "EXPERIMENTS.md E20)",
              common, &trace);

  // ---- self-checks (see file comment) --------------------------------------
  const auto rate = [&](const std::string& proto, const std::string& model,
                        const std::string& adversary,
                        const std::string& faults) {
    const auto it = rates.find({proto, model, adversary, faults});
    return it == rates.end() ? -1.0 : it->second;
  };
  int violations = 0;
  const auto fail = [&](const std::string& what) {
    std::cerr << "SELF-CHECK FAIL: " << what << "\n";
    ++violations;
  };

  // 1. No-CD parity for the NOCD family.
  for (const std::string& name : {"nocd", "nocd_robust"}) {
    const double ternary = rate(name, "ternary", "clear", "none");
    const double no_cd =
        rate(name, "collision_as_silence", "clear", "none");
    if (ternary < 0.30) {
      fail(name + ": ternary clear-channel rate " +
           util::fmt(ternary, 4) + " < 0.30 (baseline too weak)");
    }
    if (no_cd < ternary / 2.0) {
      fail(name + ": collision_as_silence rate " + util::fmt(no_cd, 4) +
           " degraded more than 2x vs its own ternary baseline " +
           util::fmt(ternary, 4));
    }
  }

  // 2. The blind-fallback gap NOCD exists to close is still there.
  {
    const double ternary = rate("aligned", "ternary", "clear", "none");
    const double no_cd =
        rate("aligned", "collision_as_silence", "clear", "none");
    if (no_cd < 0.0 || ternary < 10.0 * no_cd) {
      fail("aligned: collision_as_silence rate " + util::fmt(no_cd, 4) +
           " is no longer >= 10x below ternary " + util::fmt(ternary, 4) +
           " — the E19/E20 gap changed; revisit the docs");
    }
  }

  // 3. Jamming tolerance of the robust variant.
  {
    const double clear =
        rate("nocd_robust", "collision_as_silence", "clear", "none");
    for (const std::string& adversary : {"budgeted", "adaptive"}) {
      const double jammed =
          rate("nocd_robust", "collision_as_silence", adversary, "none");
      if (jammed < clear / 4.0) {
        fail("nocd_robust: " + adversary + " jammer drove the " +
             "collision_as_silence rate to " + util::fmt(jammed, 4) +
             " < 1/4 of the clear-channel " + util::fmt(clear, 4));
      }
    }
  }

  // 4. NOCD-ROBUST never stalls: every cell it ran delivers something.
  for (const auto& [key, value] : rates) {
    if (std::get<0>(key) == "nocd_robust" && value <= 0.0) {
      fail("nocd_robust delivered nothing on " + std::get<1>(key) + "/" +
           std::get<2>(key) + "/" + std::get<3>(key));
    }
  }

  // 5. Timeline rebound: slot-resolved telemetry of NOCD-ROBUST under a
  // hard jam covering the second quarter of the deadline window. A local
  // Timeline sink keeps the check independent of --timeline/--trace-events.
  {
    obs::Tracer tracer;
    // 64 buckets over a 2^level window settle at width window/64, so the
    // jam boundaries (quarters of the window) fall on bucket edges.
    auto timeline = std::make_shared<obs::Timeline>(64);
    tracer.add_sink(timeline);
    const Slot jam_from = window / 4;
    const Slot jam_to = window / 2;
    const auto robust = core::make_protocol("nocd_robust", params);
    sim::SimConfig sc;
    sc.seed = common.seed * 131 + 7;
    sc.feedback = sim::FeedbackModel::collision_as_silence();
    sc.tracer = &tracer;
    (void)sim::run(workload::gen_batch(batch, window, 0), *robust, sc,
                   std::make_unique<WindowedJammer>(jam_from, jam_to));
    tracer.close();

    std::int64_t jam_attempts = 0;
    std::int64_t jam_success = 0;
    std::int64_t post_attempts = 0;
    std::int64_t post_success = 0;
    const std::int64_t bw = timeline->bucket_width();
    for (std::size_t i = 0; i < timeline->bucket_count(); ++i) {
      const Slot lo = static_cast<Slot>(i) * bw;
      const Slot hi = lo + bw;
      const obs::TimelineBucket& b = timeline->bucket(i);
      if (lo >= jam_from && hi <= jam_to) {
        jam_attempts += b.attempts;
        jam_success += b.true_success;
      } else if (lo >= jam_to) {
        post_attempts += b.attempts;
        post_success += b.true_success;
      }
    }
    if (timeline->events_seen() == 0) {
      fail("timeline rebound: the traced run produced no events");
    }
    if (jam_success != 0) {
      fail("timeline rebound: " + std::to_string(jam_success) +
           " success(es) inside the hard jam window — the jammer or the "
           "bucket accounting is broken");
    }
    if (jam_attempts <= 0) {
      fail("timeline rebound: nocd_robust stopped transmitting during the "
           "jam (collision_as_silence hides the outage, so probing must "
           "continue)");
    }
    if (post_attempts <= 0 || post_success <= 0) {
      fail("timeline rebound: no post-jam recovery (attempts " +
           std::to_string(post_attempts) + ", successes " +
           std::to_string(post_success) +
           ") — nocd_robust failed to rebound after the jam lifted");
    }
    std::cerr << "timeline rebound: jam [" << jam_from << ", " << jam_to
              << ") attempts " << jam_attempts << " successes "
              << jam_success << "; post-jam attempts " << post_attempts
              << " successes " << post_success << "\n";
  }

  if (violations > 0) {
    std::cerr << "self-check: " << violations
              << " robustness violation(s)\n";
    return 1;
  }
  std::cout << "self-check: robustness gauntlet holds (no-CD parity for "
               "the NOCD family; >= 10x blind-fallback gap for ALIGNED; "
               "bounded jamming degradation; nocd_robust never stalls; "
               "timeline shows post-jam rebound)\n";
  return 0;
}
