// Feedback-model robustness sweep: protocol × channel feedback model ×
// jamming intensity (DESIGN.md §6f, EXPERIMENTS.md degradation ladder).
//
// The channel's feedback semantics are a deployment assumption, not a law:
// real radios range from full collision detection (the paper's ternary
// model, §1.1) down to ACK-only links and no-CD channels where collisions
// read as silence. This harness runs every registered protocol under each
// sim::FeedbackModel and a blanket jamming ladder and reports delivery
// rates, so the cost of each dropped capability is a number instead of
// folklore.
//
// Self-check: at zero jamming the sweep asserts the degradation ladder
// holds for every protocol (within a small statistical tolerance). Ternary
// dominates every weaker model for everyone. Below that rung the ordering
// is capability-dependent: for ternary-native protocols (ALIGNED, PUNCTUAL
// fall back to blind schedules without collision detection) binary_ack >=
// collision_as_silence, because the latter additionally withholds the
// failure ACK; for `no_cd_native` protocols (the NOCD family) the rungs
// *coincide* instead — success-only inference makes the ternary and
// collision_as_silence trajectories identical, so the check tightens to
// |ternary - collision_as_silence| <= tolerance, while binary_ack may
// legitimately sit below both (listeners are deaf there and NOCD exploits
// listener successes). The harness exits 1 when an invariant breaks, so CI
// catches a feedback-model regression the unit tests cannot see.
//
// Rows carry the slot-engine timing columns (slots, wall_ms,
// slots_per_sec) so `tools/check_perf.py --check-only` can validate the
// --json artifact shape. --collision-cost=c (default 1, the paper's
// channel) applies to every cell.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/runner.hpp"
#include "bench_common.hpp"
#include "core/registry.hpp"
#include "sim/channel.hpp"
#include "sim/jammer.hpp"
#include "workload/generators.hpp"

namespace {

using namespace crmd;

/// One sweep cell, post-run.
struct Cell {
  std::string protocol;
  std::string model;
  double jam = 0.0;
  std::uint64_t jobs = 0;
  std::int64_t slots = 0;
  double wall_ms = 0.0;
  double success_rate = 0.0;
  std::int64_t feedback_flips = 0;
};

std::string jam_tag(double jam) {
  // 0.15 -> "jam15": stable row keys without locale-dependent formatting.
  return "jam" + std::to_string(static_cast<int>(jam * 100.0 + 0.5));
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bench::CommonArgs common = bench::parse_common(args, /*reps=*/8);
  // A perceived collision freezes the channel for c-1 extra slots
  // (SimConfig::collision_cost); 1 is the paper's channel.
  const int collision_cost = bench::int_flag(args, "collision-cost", 1, 1);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  // Aligned instances work for every protocol (power-of-2-aligned windows
  // satisfy ALIGNED's precondition; everyone else is indifferent).
  // Saturated shared window: n = w/2 jobs, one power-of-2-aligned window
  // (valid for every protocol, including ALIGNED). The load is deliberate:
  // the degradation ladder is only visible where feedback *matters*. At
  // light load a blind anarchist schedule clears the channel as well as
  // the full machinery (everyone trivially succeeds and the models are
  // indistinguishable); at n = w/2 blind transmission drives per-slot
  // contention to ~lambda*log2(w)/2 and collapses, while collision-driven
  // coordination still delivers — so the cost of each dropped channel
  // capability shows up as a separated rung.
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

  const std::vector<sim::FeedbackModel> models = {
      sim::FeedbackModel::ternary(),
      sim::FeedbackModel::binary_ack(),
      sim::FeedbackModel::collision_as_silence(),
      sim::FeedbackModel::noisy(0.05),
  };
  std::vector<double> jams = {0.0, 0.15, 0.3};
  if (common.quick) {
    jams = {0.0, 0.3};
  }

  util::Table table({"scenario", "jobs", "reps", "slots", "wall_ms",
                     "slots_per_sec", "success_rate", "fb_flips"});
  // (protocol, model) -> success rate at zero jamming, for the self-check.
  std::map<std::pair<std::string, std::string>, double> at_zero_jam;

  for (const core::ProtocolInfo& info : core::protocol_catalog()) {
    const auto factory = core::make_protocol(info.name, params);
    if (!factory) {
      continue;  // defensive; the catalog mirrors the registry
    }
    for (const sim::FeedbackModel& model : models) {
      if (!info.supports(model.caps()) && !info.adapts_to_degraded_channel) {
        // Nothing in the registry hits this today; guard so a future
        // CD-dependent protocol without a fallback is skipped loudly
        // rather than swept on garbage cues.
        std::cout << "(skipping " << info.name << " on " << model.spec()
                  << ": needs collision detection, no degraded mode)\n";
        continue;
      }
      for (const double jam : jams) {
        analysis::RunOptions options;
        options.feedback = model;
        options.collision_cost = collision_cost;
        options.threads = common.threads;
        options.tracer = trace.get();
        if (jam > 0.0) {
          options.jammer_gen = [jam](util::Rng) {
            return sim::make_blanket_jammer(jam);
          };
        }
        const auto start = std::chrono::steady_clock::now();
        const analysis::ReplicationReport report = analysis::run_replications(
            gen, *factory, common.reps, common.seed, options);
        const auto stop = std::chrono::steady_clock::now();

        Cell cell;
        cell.protocol = info.name;
        cell.model = model.spec();
        cell.jam = jam;
        cell.jobs = report.outcomes.jobs();
        cell.slots = report.channel.slots_simulated;
        cell.wall_ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        cell.success_rate = report.outcomes.overall().rate();
        cell.feedback_flips = report.channel.feedback_flips;
        if (jam == 0.0) {
          at_zero_jam[{cell.protocol, cell.model}] = cell.success_rate;
        }

        const double rate =
            cell.wall_ms > 0.0
                ? static_cast<double>(cell.slots) / (cell.wall_ms / 1e3)
                : 0.0;
        table.add_row({cell.protocol + "/" + cell.model + "/" +
                           jam_tag(jam),
                       std::to_string(cell.jobs),
                       std::to_string(common.reps),
                       std::to_string(cell.slots), util::fmt(cell.wall_ms, 3),
                       util::fmt_sci(rate, 4),
                       util::fmt(cell.success_rate, 4),
                       std::to_string(cell.feedback_flips)});
      }
    }
  }

  bench::emit(table,
              "Feedback-model robustness — protocol x channel feedback "
              "model x blanket jamming (DESIGN.md §6f degradation ladder)",
              common, &trace);

  // Self-check: the degradation ladder must hold at zero jamming. The
  // tolerance absorbs replication noise only; a real inversion (a protocol
  // doing *better* with less feedback) is a modeling bug.
  const double tolerance = 0.02;
  int violations = 0;
  for (const core::ProtocolInfo& info : core::protocol_catalog()) {
    const auto rate = [&](const char* spec) {
      const auto it = at_zero_jam.find({info.name, std::string(spec)});
      return it == at_zero_jam.end() ? -1.0 : it->second;
    };
    const double ternary = rate("ternary");
    const double binary = rate("binary_ack");
    const double no_cd = rate("collision_as_silence");
    if (ternary < 0.0 || binary < 0.0 || no_cd < 0.0) {
      continue;  // protocol skipped above
    }
    // Top rung: full feedback dominates every weaker model, for everyone.
    if (ternary + tolerance < binary) {
      std::cerr << "SELF-CHECK FAIL: " << info.name << ": ternary ("
                << ternary << ") < binary_ack (" << binary << ")\n";
      ++violations;
    }
    if (ternary + tolerance < no_cd) {
      std::cerr << "SELF-CHECK FAIL: " << info.name << ": ternary ("
                << ternary << ") < collision_as_silence (" << no_cd << ")\n";
      ++violations;
    }
    if (info.no_cd_native) {
      // Success-only inference (DESIGN.md §6g): the ternary and
      // collision_as_silence trajectories are identical by construction,
      // so the rungs must coincide — the family's whole point.
      if (no_cd + tolerance < ternary) {
        std::cerr << "SELF-CHECK FAIL: " << info.name
                  << ": collision_as_silence (" << no_cd
                  << ") < ternary (" << ternary
                  << ") despite no_cd_native\n";
        ++violations;
      }
    } else if (binary + tolerance < no_cd) {
      // Ternary-native rung: collision_as_silence additionally withholds
      // the failure ACK, so it can never beat binary_ack.
      std::cerr << "SELF-CHECK FAIL: " << info.name << ": binary_ack ("
                << binary << ") < collision_as_silence (" << no_cd << ")\n";
      ++violations;
    }
  }
  if (violations > 0) {
    std::cerr << "self-check: " << violations
              << " degradation-ladder inversion(s)\n";
    return 1;
  }
  std::cout << "self-check: degradation ladder holds (ternary dominates; "
               "binary_ack >= collision_as_silence for ternary-native "
               "protocols; ternary == collision_as_silence for no-CD-native "
               "protocols, at jam=0)\n";
  return 0;
}
