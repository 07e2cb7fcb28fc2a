// Energy/latency/deadline-success Pareto sweep: protocol × feedback model ×
// jammer × load on power-of-2 batches (DESIGN.md §6k, EXPERIMENTS.md E24;
// Bender–Fineman–Gilbert–Kuszmaul, arXiv:2302.07751).
//
// The paper's protocols optimize deadline-success and latency; the
// energy-complexity literature asks what each delivered message costs in
// radio-on time. This harness sweeps every registered protocol — plus the
// ENERGY_BEB spread-fraction variants that trace its Pareto knob — across
// ternary/binary_ack feedback, clear/blanket channels, and two loads: the
// saturated batch (n = w/2, the gauntlet geometry) and a 2x-overloaded
// batch (n = 2w) where most jobs must miss and the only question is what
// the misses cost. Three stories the table tells:
//   - ALIGNED/PUNCTUAL are always-listening: their awake time IS their
//     lifetime, win or lose (the §6k headline contrast).
//   - BEB's reactive doubling buys its latency with ~log2(w) wake-ups per
//     job at saturation, and keeps paying them at overload where the
//     retries cannot possibly help.
//   - ENERGY_BEB's slow feedback loop caps the awake budget at O(1): at
//     overload the duty-cycling variant delivers MORE jobs than BEB on
//     >=10x fewer awake slots (the E24 acceptance point, self-check 5).
//
// Self-checks (the CI release job blocks on the exit code):
//   1. partition identity — every cell satisfies
//      slots_awake == slots_listening + slots_transmitting, and awake
//      never exceeds live − dark job-slots.
//   2. always-listening ≡ lifetime — for every catalog protocol flagged
//      always_listening, slots_awake equals live − dark job-slots exactly,
//      in every cell of the sweep.
//   3. sleeper sublinearity — growing the saturated window 4x grows
//      ENERGY_BEB's and BEB's awake slots per job by at most 2x
//      (logarithmic/constant energy), while ALIGNED's grows at least 3x
//      (linear: always-listening pays the whole horizon).
//   4. engine invariance — energy counters are bit-identical across
//      --threads {1,2,8} and --fast-forward off|on|validate for a probe
//      set spanning sleepers, promise-carriers, and always-listeners.
//   5. Pareto acceptance — at the 2x-overloaded load, some ENERGY_BEB
//      variant beats BEB's deadline-success while spending >=10x fewer
//      awake slots per job (recorded in EXPERIMENTS.md E24).
//
// Rows carry the slot-engine timing columns so
// `tools/check_perf.py --check-only --expect` can validate artifact shape
// and sweep completeness in CI.

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
#include "sim/channel.hpp"
#include "sim/jammer.hpp"
#include "workload/generators.hpp"

namespace {

using namespace crmd;

/// One protocol variant in the sweep: a registry name plus the ENERGY_BEB
/// Pareto-knob overrides (ignored by every other protocol).
struct Variant {
  std::string label;
  std::string registry_name;
  double spread_frac;
};

/// One adversary configuration (mirrors the robustness gauntlet).
struct Adversary {
  std::string name;
  analysis::JammerGen gen;  // null = no jamming
};

/// Everything the self-checks need from one cell.
struct Cell {
  double rate = -1.0;
  double awake_per_job = 0.0;
  sim::SimMetrics channel;
};

/// (variant, load, feedback, adversary) -> cell.
using Key = std::tuple<std::string, std::string, std::string, std::string>;

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bench::CommonArgs common = bench::parse_common(args, /*reps=*/8);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  const int level = common.quick ? 9 : 10;
  const Slot window = Slot{1} << level;

  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = level;

  // Every registered protocol at default params, plus the ENERGY_BEB
  // spread-fraction variants tracing the §6k Pareto knob (f0.50 IS the
  // registry default, so plain "energy_beb" already covers it).
  std::vector<Variant> variants;
  for (const std::string& name : core::protocol_names()) {
    variants.push_back({name, name, params.energy_spread_frac});
  }
  variants.push_back({"energy_beb:f1.00", "energy_beb", 1.0});
  variants.push_back({"energy_beb:f2.00", "energy_beb", 2.0});

  // Loads: the saturated gauntlet batch and a 2x-overloaded one where
  // deadline-success is physically capped low and energy is the story.
  const std::vector<std::pair<std::string, std::int64_t>> loads = {
      {"sat", window / 2},
      {"over", window * 2},
  };
  const std::vector<std::pair<std::string, sim::FeedbackModel>> feedbacks = {
      {"ternary", sim::FeedbackModel::ternary()},
      {"binack", sim::FeedbackModel::binary_ack()},
  };
  std::vector<Adversary> adversaries;
  adversaries.push_back({"clear", nullptr});
  adversaries.push_back({"blanket", [](util::Rng) {
                           return sim::make_blanket_jammer(0.3);
                         }});

  util::Table table({"scenario", "jobs", "reps", "slots", "wall_ms",
                     "slots_per_sec", "success_rate", "awake_per_job",
                     "listen_per_job", "tx_per_job", "duty_pct"});
  std::map<Key, Cell> cells;

  for (const Variant& variant : variants) {
    core::Params vparams = params;
    vparams.energy_spread_frac = variant.spread_frac;
    const auto factory = core::make_protocol(variant.registry_name, vparams);
    if (!factory) {
      std::cerr << "energy: unknown protocol '" << variant.registry_name
                << "'\n";
      return 1;
    }
    for (const auto& [load_name, batch] : loads) {
      const analysis::InstanceGen gen = [&, n = batch](util::Rng&) {
        return workload::gen_batch(n, window, 0);
      };
      for (const auto& [fb_name, feedback] : feedbacks) {
        for (const Adversary& adversary : adversaries) {
          analysis::RunOptions options;
          options.feedback = feedback;
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

          const sim::SimMetrics& m = report.channel;
          const auto jobs = report.outcomes.jobs();
          Cell cell;
          cell.rate = report.outcomes.overall().rate();
          cell.awake_per_job = report.outcomes.awake().mean();
          cell.channel = m;
          cells[{variant.label, load_name, fb_name, adversary.name}] = cell;

          const std::int64_t lifetime = m.live_job_slots - m.dark_job_slots;
          table.add_row(
              {variant.label + "/" + load_name + "/" + fb_name + "/" +
                   adversary.name,
               std::to_string(jobs), std::to_string(common.reps),
               std::to_string(m.slots_simulated), util::fmt(wall_ms, 3),
               util::fmt_sci(
                   wall_ms > 0.0
                       ? static_cast<double>(m.slots_simulated) /
                             (wall_ms / 1e3)
                       : 0.0,
                   4),
               util::fmt(cell.rate, 4), util::fmt(cell.awake_per_job, 2),
               util::fmt(static_cast<double>(m.slots_listening) /
                             static_cast<double>(jobs),
                         2),
               util::fmt(static_cast<double>(m.slots_transmitting) /
                             static_cast<double>(jobs),
                         2),
               util::fmt(lifetime > 0
                             ? 100.0 * static_cast<double>(m.slots_awake) /
                                   static_cast<double>(lifetime)
                             : 0.0,
                         1)});
        }
      }
    }
  }

  bench::emit(table,
              "Energy Pareto sweep — protocol x feedback x jammer x load, "
              "radio-on cost vs deadline-success (DESIGN.md §6k, "
              "EXPERIMENTS.md E24)",
              common, &trace);

  // ---- self-checks (see file comment) --------------------------------------
  int violations = 0;
  const auto fail = [&](const std::string& what) {
    std::cerr << "SELF-CHECK FAIL: " << what << "\n";
    ++violations;
  };

  // 1. Partition identity in every cell.
  for (const auto& [key, cell] : cells) {
    const auto& [variant, load, fb, jam] = key;
    const std::string where =
        variant + "/" + load + "/" + fb + "/" + jam;
    const sim::SimMetrics& m = cell.channel;
    if (m.slots_awake != m.slots_listening + m.slots_transmitting) {
      fail(where + ": slots_awake " + std::to_string(m.slots_awake) +
           " != listening " + std::to_string(m.slots_listening) +
           " + transmitting " + std::to_string(m.slots_transmitting));
    }
    if (m.slots_awake > m.live_job_slots - m.dark_job_slots) {
      fail(where + ": awake " + std::to_string(m.slots_awake) +
           " exceeds live-dark " +
           std::to_string(m.live_job_slots - m.dark_job_slots));
    }
  }

  // 2. Always-listening protocols pay their whole lifetime, every cell.
  for (const auto& info : core::protocol_catalog()) {
    if (!info.always_listening) {
      continue;
    }
    for (const auto& [key, cell] : cells) {
      if (std::get<0>(key) != info.name) {
        continue;
      }
      const sim::SimMetrics& m = cell.channel;
      const std::int64_t lifetime = m.live_job_slots - m.dark_job_slots;
      if (m.slots_awake != lifetime) {
        fail(std::string(info.name) + "/" + std::get<1>(key) + "/" +
             std::get<2>(key) + "/" + std::get<3>(key) +
             ": catalog says always-listening but awake " +
             std::to_string(m.slots_awake) + " != live-dark " +
             std::to_string(lifetime));
      }
    }
  }

  // 3. Sleeper sublinearity: 4x the saturated horizon, at most 2x the
  //    awake slots per job for the backoff sleepers — versus at least 3x
  //    for always-listening ALIGNED.
  {
    const auto awake_at = [&](const std::string& name, int probe_level,
                              double spread_frac) {
      core::Params pp = params;
      pp.min_class = probe_level;
      pp.energy_spread_frac = spread_frac;
      const Slot w = Slot{1} << probe_level;
      const analysis::InstanceGen gen = [w](util::Rng&) {
        return workload::gen_batch(w / 2, w, 0);
      };
      analysis::RunOptions options;
      options.threads = common.threads;
      const auto report = analysis::run_replications(
          gen, *core::make_protocol(name, pp), common.reps, common.seed,
          options);
      return report.outcomes.awake().mean();
    };
    for (const char* name : {"energy_beb", "beb"}) {
      const double small = awake_at(name, level, 0.5);
      const double big = awake_at(name, level + 2, 0.5);
      if (big > 2.0 * small) {
        fail(std::string(name) + ": awake/job grew " + util::fmt(small, 2) +
             " -> " + util::fmt(big, 2) +
             " across a 4x horizon — sleeper energy must be sublinear");
      }
    }
    const double small = awake_at("aligned", level, 0.5);
    const double big = awake_at("aligned", level + 2, 0.5);
    if (big < 3.0 * small) {
      fail("aligned: awake/job grew only " + util::fmt(small, 2) + " -> " +
           util::fmt(big, 2) +
           " across a 4x horizon — always-listening energy must be linear");
    }
  }

  // 4. Energy counters are bit-identical across thread counts and
  //    fast-forward modes (the §6k determinism contract, end to end).
  {
    const analysis::InstanceGen gen = [&](util::Rng&) {
      return workload::gen_batch(window / 2, window, 0);
    };
    for (const char* name : {"uniform", "beb", "energy_beb", "aligned"}) {
      const auto factory = core::make_protocol(name, params);
      analysis::RunOptions base;
      const auto reference = analysis::run_replications(
          gen, *factory, common.reps, common.seed, base);
      const auto check = [&](const analysis::RunOptions& options,
                             const std::string& what) {
        const auto got = analysis::run_replications(
            gen, *factory, common.reps, common.seed, options);
        const sim::SimMetrics& a = got.channel;
        const sim::SimMetrics& b = reference.channel;
        if (a.slots_awake != b.slots_awake ||
            a.slots_listening != b.slots_listening ||
            a.slots_transmitting != b.slots_transmitting ||
            a.live_job_slots != b.live_job_slots ||
            got.outcomes.awake().mean() !=
                reference.outcomes.awake().mean()) {
          fail(std::string(name) + " " + what +
               ": energy counters drifted (awake " +
               std::to_string(a.slots_awake) + " vs " +
               std::to_string(b.slots_awake) + ")");
        }
      };
      for (const int threads : {2, 8}) {
        analysis::RunOptions options;
        options.threads = threads;
        check(options, "threads=" + std::to_string(threads));
      }
      for (const auto ff :
           {sim::FastForward::kOn, sim::FastForward::kValidate}) {
        analysis::RunOptions options;
        options.fast_forward = ff;
        check(options,
              std::string("fast-forward=") +
                  (ff == sim::FastForward::kOn ? "on" : "validate"));
      }
    }
  }

  // 5. The E24 acceptance point: at 2x overload, some ENERGY_BEB variant
  //    must beat BEB's deadline-success on >=10x fewer awake slots/job.
  {
    bool witness = false;
    for (const auto& [fb_name, feedback] : feedbacks) {
      for (const Adversary& adversary : adversaries) {
        const auto beb_it =
            cells.find({"beb", "over", fb_name, adversary.name});
        if (beb_it == cells.end()) {
          continue;
        }
        for (const std::string label :
             {"energy_beb", "energy_beb:f1.00", "energy_beb:f2.00"}) {
          const auto it =
              cells.find({label, "over", fb_name, adversary.name});
          if (it == cells.end()) {
            continue;
          }
          const Cell& eb = it->second;
          const Cell& beb = beb_it->second;
          if (eb.rate >= beb.rate &&
              eb.awake_per_job * 10.0 <= beb.awake_per_job) {
            std::cout << "pareto witness: " << label << "/over/" << fb_name
                      << "/" << adversary.name << " delivers "
                      << util::fmt(eb.rate, 4) << " (beb "
                      << util::fmt(beb.rate, 4) << ") at "
                      << util::fmt(eb.awake_per_job, 2)
                      << " awake slots/job (beb "
                      << util::fmt(beb.awake_per_job, 2) << ", "
                      << util::fmt(beb.awake_per_job /
                                       std::max(eb.awake_per_job, 1e-9),
                                   1)
                      << "x)\n";
            witness = true;
          }
        }
      }
    }
    if (!witness) {
      fail("no overloaded cell shows an ENERGY_BEB variant with >=10x "
           "fewer awake slots/job at >= BEB's deadline-success — the E24 "
           "acceptance point is gone");
    }
  }

  if (violations > 0) {
    std::cerr << "self-check: " << violations
              << " energy-sweep violation(s)\n";
    return 1;
  }
  std::cout << "self-check: energy accounting holds (awake partitions into "
               "listen+transmit; always-listening pays its lifetime; "
               "sleeper energy sublinear in the horizon; counters "
               "bit-identical across threads and fast-forward modes; "
               "ENERGY_BEB Pareto-dominates BEB at overload by >=10x)\n";
  return 0;
}
