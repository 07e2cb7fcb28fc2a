// Microbenchmarks (google-benchmark): raw simulator throughput, RNG, the
// feasibility checkers, tracker stepping, estimation updates, per-job-slot
// NOCD and PUNCTUAL steps, and trimming.
// These gate performance regressions; they reproduce no paper claim.

#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <vector>

#include "baselines/aloha.hpp"
#include "core/aligned/estimation.hpp"
#include "core/aligned/tracker.hpp"
#include "core/nocd/protocol.hpp"
#include "core/params.hpp"
#include "core/punctual/protocol.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/feasibility.hpp"
#include "workload/generators.hpp"
#include "workload/trim.hpp"

namespace {

using namespace crmd;

void BM_RngU64(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngU64);

void BM_RngBernoulli(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bernoulli(0.3));
  }
}
BENCHMARK(BM_RngBernoulli);

void BM_RngBelow(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1000));
  }
}
BENCHMARK(BM_RngBelow);

// Simulator slots/second with k concurrent ALOHA jobs.
void BM_SimulatorAloha(benchmark::State& state) {
  const auto jobs = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    const auto instance = workload::gen_batch(jobs, 1 << 12, 0);
    sim::SimConfig config;
    config.seed = 7;
    sim::Simulation sim(instance, baselines::make_aloha_factory(0.01),
                        config);
    state.ResumeTiming();
    const auto result = sim.finish();
    benchmark::DoNotOptimize(result.metrics.slots_simulated);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 12));
}
BENCHMARK(BM_SimulatorAloha)->Arg(8)->Arg(64)->Arg(512);

void BM_EdfFeasible(benchmark::State& state) {
  util::Rng rng(3);
  workload::GeneralConfig config;
  config.min_window = 1 << 8;
  config.max_window = 1 << 12;
  config.gamma = 1.0 / 8;
  config.horizon = 1 << 15;
  const auto instance = workload::gen_general(config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::edf_feasible(instance, 8));
  }
  state.SetLabel(std::to_string(instance.size()) + " jobs");
}
BENCHMARK(BM_EdfFeasible);

void BM_TrackerStep(benchmark::State& state) {
  core::Params p;
  p.lambda = 2;
  p.tau = 8;
  core::aligned::Tracker tracker(p, 8, 14);
  Slot t = 0;
  for (auto _ : state) {
    tracker.begin_slot(t);
    tracker.end_slot(sim::SlotOutcome::kSilence);
    ++t;
  }
}
BENCHMARK(BM_TrackerStep);

void BM_EstimationRecord(benchmark::State& state) {
  core::Params p;
  p.lambda = 4;
  // Outcomes come from a run-time table: with a constant outcome the
  // compiler could fold the whole (inline) record loop.
  util::Rng rng(6);
  std::vector<sim::SlotOutcome> outcomes(
      static_cast<std::size_t>(p.estimation_steps(16)));
  for (sim::SlotOutcome& o : outcomes) {
    o = rng.bernoulli(0.3) ? sim::SlotOutcome::kSuccess
                           : sim::SlotOutcome::kSilence;
  }
  for (auto _ : state) {
    core::aligned::EstimationState est(p, 16);
    std::size_t next = 0;
    while (!est.complete()) {
      est.record(outcomes[next++]);
    }
    benchmark::DoNotOptimize(est.estimate());
  }
  state.SetItemsProcessed(state.iterations() * p.estimation_steps(16));
}
BENCHMARK(BM_EstimationRecord);

// One tracker step with state.range(0) tracked classes, own class 14.
void BM_TrackerStepSpan(benchmark::State& state) {
  core::Params p;
  p.lambda = 2;
  p.tau = 8;
  const auto span = static_cast<int>(state.range(0));
  core::aligned::Tracker tracker(p, 15 - span, 14);
  Slot t = 0;
  for (auto _ : state) {
    tracker.begin_slot(t);
    benchmark::DoNotOptimize(tracker.active_class());
    tracker.end_slot(sim::SlotOutcome::kSilence);
    ++t;
  }
}
BENCHMARK(BM_TrackerStepSpan)->Arg(1)->Arg(3)->Arg(6);

// The same step under clock skew: about one slot in eight slips one ahead,
// so the tracker sees a gap of 2 and resets across the skipped boundary.
void BM_TrackerStepSkew(benchmark::State& state) {
  core::Params p;
  p.lambda = 2;
  p.tau = 8;
  core::aligned::Tracker tracker(p, 8, 14);
  util::Rng rng(3);
  std::vector<Slot> gaps(1024);
  for (Slot& gap : gaps) {
    gap = rng.below(8) == 0 ? 2 : 1;
  }
  Slot t = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    tracker.begin_slot(t);
    benchmark::DoNotOptimize(tracker.active_class());
    tracker.end_slot(sim::SlotOutcome::kSilence);
    t += gaps[next];
    next = (next + 1) & (gaps.size() - 1);  // the size is a power of two
  }
}
BENCHMARK(BM_TrackerStepSkew);

// One NOCD_ROBUST job-slot: on_slot then on_feedback. Listeners hear a
// pre-drawn mix of silence and noise (never a success, so the job stays
// live), which walks the exponent through dry epochs and robust probes.
void BM_NocdStep(benchmark::State& state) {
  core::Params p;
  core::nocd::NocdProtocol proto(p, /*robust=*/true, util::Rng(9));
  sim::JobInfo info;
  info.id = 0;
  info.deadline = Slot{1} << 40;
  proto.on_activate(info);
  util::Rng rng(4);
  std::vector<sim::SlotFeedback> heard(1024);
  for (sim::SlotFeedback& fb : heard) {
    fb.outcome = rng.bernoulli(0.5) ? sim::SlotOutcome::kNoise
                                    : sim::SlotOutcome::kSilence;
  }
  Slot t = 0;
  for (auto _ : state) {
    const sim::SlotView view{t, t};
    sim::SlotAction action = proto.on_slot(view);
    benchmark::DoNotOptimize(action);
    proto.on_feedback(view, heard[static_cast<std::size_t>(t) % 1024]);
    ++t;
  }
}
BENCHMARK(BM_NocdStep);

// One PUNCTUAL anarchist job-slot (the stage most PUNCTUAL job-slots of the
// jammed paper sweep run in): a lone job announces its own round grid,
// finds no leader, pulls back for one election and releases; then each
// iteration is on_slot plus on_feedback. Its own transmissions are heard as
// noise, every other slot as silence, so it never succeeds.
void BM_PunctualAnarchistStep(benchmark::State& state) {
  core::Params p;
  p.pullback_window_frac = 1e-9;  // a one-election pullback stage
  core::punctual::PunctualProtocol proto(p, util::Rng(11));
  sim::JobInfo info;
  info.id = 0;
  info.deadline = Slot{1} << 12;  // the anarchist stage ignores the deadline
  proto.on_activate(info);
  sim::SlotFeedback noise;
  noise.outcome = sim::SlotOutcome::kNoise;
  const sim::SlotFeedback silence;
  Slot t = 0;
  const auto step = [&] {
    const sim::SlotView view{t, t};
    const sim::SlotAction action = proto.on_slot(view);
    proto.on_feedback(view, action.transmit ? noise : silence);
    ++t;
  };
  using Stage = core::punctual::PunctualProtocol::Stage;
  while (proto.stage() != Stage::kAnarchist && t < 1000) {
    step();
  }
  if (proto.stage() != Stage::kAnarchist) {
    state.SkipWithError("PUNCTUAL never reached the anarchist stage");
    return;
  }
  for (auto _ : state) {
    step();
  }
}
BENCHMARK(BM_PunctualAnarchistStep);

void BM_Trimmed(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    const Slot r = rng.range(0, 1 << 30);
    const Slot w = rng.range(1, 1 << 20);
    benchmark::DoNotOptimize(workload::trimmed(r, r + w));
  }
}
BENCHMARK(BM_Trimmed);

// Tracing overhead: the same PUNCTUAL simulation with tracing off
// (null tracer — the CRMD_TRACE pointer test only), ring-only (tracer with
// no sinks; events are pushed and bulk-discarded), and a full JSONL sink
// (every event formatted and written to an in-memory stream). Comparing
// items/sec across the three shows what observability costs at each tier.
enum class TraceMode { kOff, kRingOnly, kJsonl };

void run_traced_sim(benchmark::State& state, TraceMode mode) {
  workload::GeneralConfig wconfig;
  wconfig.min_window = 1 << 9;
  wconfig.max_window = 1 << 11;
  wconfig.gamma = 1.0 / 32;
  wconfig.horizon = 1 << 13;
  core::Params params;
  params.min_class = 8;
  const auto factory = core::punctual::make_punctual_factory(params);

  std::int64_t slots = 0;
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(11);
    const auto instance = workload::gen_general(wconfig, rng);
    sim::SimConfig config;
    config.seed = 11;
    std::unique_ptr<obs::Tracer> tracer;
    std::ostringstream jsonl;
    if (mode != TraceMode::kOff) {
      tracer = std::make_unique<obs::Tracer>();
      if (mode == TraceMode::kJsonl) {
        tracer->add_sink(std::make_shared<obs::JsonlSink>(jsonl));
      }
      config.tracer = tracer.get();
    }
    state.ResumeTiming();
    const auto result = sim::run(instance, factory, config);
    if (tracer) {
      tracer->flush();
    }
    slots += result.metrics.slots_simulated;
    benchmark::DoNotOptimize(result.metrics.slots_simulated);
  }
  state.SetItemsProcessed(slots);
}

void BM_TracingOff(benchmark::State& state) {
  run_traced_sim(state, TraceMode::kOff);
}
BENCHMARK(BM_TracingOff);

void BM_TracingRingOnly(benchmark::State& state) {
  run_traced_sim(state, TraceMode::kRingOnly);
}
BENCHMARK(BM_TracingRingOnly);

void BM_TracingJsonl(benchmark::State& state) {
  run_traced_sim(state, TraceMode::kJsonl);
}
BENCHMARK(BM_TracingJsonl);

void BM_GenAligned(benchmark::State& state) {
  workload::AlignedConfig config;
  config.min_class = 9;
  config.max_class = 13;
  config.gamma = 1.0 / 16;
  config.horizon = 1 << 15;
  util::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::gen_aligned(config, rng));
  }
}
BENCHMARK(BM_GenAligned);

}  // namespace

BENCHMARK_MAIN();
