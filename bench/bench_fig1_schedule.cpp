// E1 — Figure 1: pecking-order scheduling of active steps for aligned
// windows, regenerated from a real ALIGNED execution.
//
// Three classes (small/medium/large) share the channel. The harness steps
// the simulation, asks a live job which class is active in each slot and
// whether that class is estimating or broadcasting, and renders both the
// per-window accounting table and an ASCII timeline mirroring the figure
// (estimation = 'E', broadcast = 'B'; lower rows = larger windows; windows
// are delimited with '|').

#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "core/aligned/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/math.hpp"
#include "workload/generators.hpp"

namespace {

using namespace crmd;

struct WindowStats {
  std::int64_t est_steps = 0;
  std::int64_t bcast_steps = 0;
  Slot first_active = -1;
  Slot last_active = -1;
  std::int64_t jobs = 0;
  std::int64_t successes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto common = bench::parse_serial(args, /*default_reps=*/1);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  core::Params p;
  p.lambda = 1;
  p.tau = 2;
  p.min_class = 10;
  const int kSmall = 10;
  const int kMedium = 11;
  const int kLarge = 12;
  const Slot horizon = 1 << 13;

  // Jobs per window, echoing Figure 1's uneven occupancy.
  workload::Instance instance;
  auto add = [&](Slot start, int level, std::int64_t count) {
    instance = workload::merge(
        instance, workload::gen_batch(count, util::pow2(level), start));
  };
  add(0, kSmall, 2);
  add(1 << 10, kSmall, 1);
  add(3 << 10, kSmall, 2);
  add(5 << 10, kSmall, 1);
  add(0, kMedium, 3);
  add(1 << 11, kMedium, 2);
  add(2 << 11, kMedium, 1);
  add(0, kLarge, 4);
  add(1 << 12, kLarge, 2);

  sim::SimConfig config;
  config.seed = common.seed;
  config.horizon = horizon;
  config.tracer = trace.get();
  sim::Simulation sim(instance, core::aligned::make_aligned_factory(p),
                      config);

  std::map<std::pair<int, Slot>, WindowStats> windows;
  std::vector<char> small_row(static_cast<std::size_t>(horizon), ' ');
  std::vector<char> medium_row(static_cast<std::size_t>(horizon), ' ');
  std::vector<char> large_row(static_cast<std::size_t>(horizon), ' ');

  // The observer fires after every job's on_slot for the slot, so the
  // deepest live tracker's last_step() describes exactly this slot.
  sim.set_observer([&](const sim::SlotRecord& rec,
                       std::span<const sim::Transmission>) {
    const Slot t = rec.slot;
    core::aligned::AlignedProtocol* deepest = nullptr;
    for (const JobId id : sim.live_jobs()) {
      auto* proto =
          dynamic_cast<core::aligned::AlignedProtocol*>(sim.protocol(id));
      if (proto != nullptr &&
          (deepest == nullptr || proto->level() > deepest->level())) {
        deepest = proto;
      }
    }
    if (deepest == nullptr || !deepest->last_step().valid) {
      return;
    }
    const int active = deepest->last_step().active_class;
    if (active < 0) {
      return;
    }
    const bool estimating = deepest->last_step().estimating;
    const Slot wstart = util::align_down(t, util::pow2(active));
    WindowStats& stats = windows[{active, wstart}];
    if (estimating) {
      ++stats.est_steps;
    } else {
      ++stats.bcast_steps;
    }
    if (stats.first_active < 0) {
      stats.first_active = t;
    }
    stats.last_active = t;
    auto& row = active == kSmall    ? small_row
                : active == kMedium ? medium_row
                                    : large_row;
    row[static_cast<std::size_t>(t)] = estimating ? 'E' : 'B';
  });

  const sim::SimResult result = sim.finish();
  for (const auto& job : result.jobs) {
    const int level = util::floor_log2(job.window());
    WindowStats& stats = windows[{level, job.release}];
    ++stats.jobs;
    stats.successes += job.success ? 1 : 0;
  }

  util::Table table({"class", "window", "span", "jobs", "delivered",
                     "est steps", "bcast steps", "first active",
                     "last active"});
  for (const auto& [key, stats] : windows) {
    const auto& [level, wstart] = key;
    table.add_row({std::to_string(level),
                   "[" + util::fmt_count(wstart) + ", " +
                       util::fmt_count(wstart + util::pow2(level)) + ")",
                   util::fmt_count(util::pow2(level)),
                   std::to_string(stats.jobs),
                   std::to_string(stats.successes),
                   util::fmt_count(stats.est_steps),
                   util::fmt_count(stats.bcast_steps),
                   util::fmt_count(stats.first_active),
                   util::fmt_count(stats.last_active)});
  }
  bench::emit(table,
              "E1 / Figure 1 — pecking-order schedule (ALIGNED, lambda=1, "
              "tau=2)",
              common, &trace);

  // Compressed timeline: one char per 64-slot bucket, rows ordered small ->
  // large as in Figure 1. 'E' estimation, 'B' broadcast, '*' both, '|' at
  // each window boundary of that row's class.
  const Slot bucket = 64;
  auto render = [&](const std::vector<char>& row, int level) {
    std::string out;
    for (Slot b = 0; b < horizon; b += bucket) {
      if (b % util::pow2(level) == 0) {
        out += '|';
      }
      bool has_e = false;
      bool has_b = false;
      for (Slot t = b; t < b + bucket; ++t) {
        has_e |= row[static_cast<std::size_t>(t)] == 'E';
        has_b |= row[static_cast<std::size_t>(t)] == 'B';
      }
      out += has_e && has_b ? '*' : has_e ? 'E' : has_b ? 'B' : '.';
    }
    return out;
  };
  std::cout << "timeline (1 char = 64 slots; E estimation, B broadcast, * "
               "both, | window boundary):\n";
  std::cout << "small  (2^10): " << render(small_row, kSmall) << "\n";
  std::cout << "medium (2^11): " << render(medium_row, kMedium) << "\n";
  std::cout << "large  (2^12): " << render(large_row, kLarge) << "\n\n";
  std::cout << "delivered " << result.successes() << "/" << result.jobs.size()
            << " jobs; active steps interleave with priority to smaller "
               "windows, as in Figure 1.\n";
  return 0;
}
