// E9 — Lemma 16: the contention in every leader-election slot stays below
// any constant ε for small enough γ — the pullback probabilities
// 1/(w log³w) of all concurrent slingshotters sum to O(1/log³) per class.
//
// The harness runs PUNCTUAL on a general instance, locks onto the round
// grid, classifies every slot by its role, and reports per-slot-type
// contention — election slots must show near-zero contention while sync
// slots (deliberate collisions) show contention ≈ live jobs.

#include <array>
#include <vector>

#include "bench_common.hpp"
#include "core/punctual/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  using core::punctual::SlotType;
  const util::Args args(argc, argv);
  const auto common = bench::parse_common(args, /*default_reps=*/5);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  const auto factory = core::punctual::make_punctual_factory(params);

  // One rep's observations: the contention of every slot after the grid
  // lock, per slot type in slot order, and the largest election-slot one.
  struct RepSlots {
    bool ran = false;
    std::array<std::vector<double>, 6> by_type;  // indexed by SlotType
    double election_max = 0.0;
  };
  std::array<util::RunningStats, 6> by_type;  // indexed by SlotType
  util::RunningStats election_max;

  obs::run_traced(
      common.reps, common.threads, trace.get(),
      [&](int rep, obs::Tracer* tracer) {
        RepSlots out;
        util::Rng rng(common.seed + static_cast<std::uint64_t>(rep));
        workload::GeneralConfig config;
        config.min_window = 1 << 11;
        config.max_window = 1 << 13;
        config.gamma = 1.0 / 16;
        config.horizon = 1 << 15;
        const auto instance = workload::gen_general(config, rng);
        if (instance.empty()) {
          return out;
        }
        out.ran = true;
        std::vector<Slot> releases;
        releases.reserve(instance.size());
        for (const auto& j : instance.jobs) {
          releases.push_back(j.release);
        }

        sim::SimConfig sc;
        sc.seed = common.seed * 31 + static_cast<std::uint64_t>(rep);
        sc.tracer = tracer;
        sim::Simulation sim(instance, factory, sc);

        Slot anchor = kNoSlot;
        sim.set_observer([&](const sim::SlotRecord& rec,
                             std::span<const sim::Transmission>) {
          if (anchor == kNoSlot) {
            return;
          }
          const std::int64_t off =
              (rec.slot - anchor) % core::punctual::kRoundLength;
          const SlotType type = core::punctual::slot_type(off);
          out.by_type[static_cast<std::size_t>(type)].push_back(
              rec.contention);
          if (type == SlotType::kLeaderElection) {
            out.election_max = std::max(out.election_max, rec.contention);
          }
        });
        while (!sim.finished()) {
          if (anchor == kNoSlot) {
            for (const JobId id : sim.live_jobs()) {
              auto* proto = dynamic_cast<core::punctual::PunctualProtocol*>(
                  sim.protocol(id));
              if (proto != nullptr && proto->clock().synced()) {
                const Slot t = sim.now() - releases[id];
                anchor = sim.now() - proto->clock().offset(t);
                break;
              }
            }
          }
          if (!sim.step()) {
            break;
          }
        }
        sim.finish();
        return out;
      },
      [&](int /*rep*/, RepSlots&& rep) {
        if (!rep.ran) {
          return;
        }
        for (std::size_t i = 0; i < by_type.size(); ++i) {
          for (const double contention : rep.by_type[i]) {
            by_type[i].add(contention);
          }
        }
        election_max.add(rep.election_max);
      });

  const auto type_name = [](std::size_t i) {
    return core::punctual::to_string(static_cast<SlotType>(i));
  };
  util::Table table(
      {"slot type", "slots observed", "mean contention", "max contention"});
  for (std::size_t i = 0; i < by_type.size(); ++i) {
    if (by_type[i].count() == 0) {
      continue;
    }
    table.add_row({type_name(i),
                   util::fmt_count(static_cast<std::int64_t>(
                       by_type[i].count())),
                   util::fmt_sci(by_type[i].mean(), 2),
                   util::fmt_sci(by_type[i].max(), 2)});
  }
  bench::emit(table,
              "E9 / Lemma 16 — contention by slot type under PUNCTUAL "
              "(general instances, gamma=1/16); election-slot contention "
              "must stay << 1 (mean of per-rep maxima: " +
                  util::fmt_sci(election_max.mean(), 2) + ")",
              common, &trace);
  return 0;
}
