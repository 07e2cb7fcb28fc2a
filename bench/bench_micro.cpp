// Microbenchmarks (google-benchmark): raw simulator throughput, the typed
// vs virtual-call slot pipeline at fdma_faults' and paper_sweep's shapes,
// batch set-up and activation, RNG, the feasibility checkers, tracker
// stepping, estimation updates, per-job-slot NOCD, ALIGNED and PUNCTUAL
// steps, the per-job-slot fault calls, and trimming.
// These gate performance regressions; they reproduce no paper claim.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "baselines/aloha.hpp"
#include "core/aligned/estimation.hpp"
#include "core/aligned/protocol.hpp"
#include "core/aligned/tracker.hpp"
#include "core/nocd/protocol.hpp"
#include "core/params.hpp"
#include "core/punctual/protocol.hpp"
#include "core/uniform.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "util/arena.hpp"
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

// Forwards every Protocol call to the protocol it wraps. A factory built
// from lambdas carries no typed slot pipeline, so the engine runs the
// virtual-call one (step_slot<Protocol>) for it (DESIGN.md §6e).
class Forwarding final : public sim::Protocol {
 public:
  Forwarding(sim::Protocol* inner, bool arena_owned) noexcept
      : inner_(inner), arena_owned_(arena_owned) {}
  ~Forwarding() override {
    if (arena_owned_) {
      inner_->~Protocol();
    } else {
      delete inner_;
    }
  }
  void on_activate(const sim::JobInfo& info) override {
    inner_->set_tracer(obs_);
    inner_->on_activate(info);
  }
  sim::SlotAction on_slot(const sim::SlotView& view) override {
    return inner_->on_slot(view);
  }
  void on_feedback(const sim::SlotView& view,
                   const sim::SlotFeedback& fb) override {
    inner_->on_feedback(view, fb);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] sim::DormantSpan dormant_span(
      const sim::SlotView& view) const override {
    return inner_->dormant_span(view);
  }

 private:
  sim::Protocol* inner_;
  bool arena_owned_;
};

sim::ProtocolFactory forwarding(const sim::ProtocolFactory& inner) {
  return sim::ProtocolFactory(
      [inner](const sim::JobInfo& info,
              util::Rng rng) -> std::unique_ptr<sim::Protocol> {
        return std::make_unique<Forwarding>(inner(info, rng).release(),
                                            false);
      },
      [inner](const sim::JobInfo& info, util::Rng rng,
              util::MonotonicArena& arena) -> sim::Protocol* {
        return arena.create<Forwarding>(inner.emplace(info, rng, arena),
                                        true);
      });
}

// One run of perfbench's fdma_faults shape per iteration: 1024 NOCD_ROBUST
// jobs in a 1024-slot batch over 4 migrating channels with binary_ack,
// feedback loss 0.01 and crashes at 0.0005 (stalls of 4-16 slots); items
// are live job-slots. `typed` runs the registered factory, whose typed
// pipeline inlines NOCD's per-slot calls; `decorated` runs the same
// factory behind a forwarding decorator, i.e. the virtual-call pipeline.
void BM_SimulatorFdmaSlot(benchmark::State& state, bool decorated) {
  const sim::ProtocolFactory typed =
      core::nocd::make_nocd_factory(core::Params{}, /*robust=*/true);
  const sim::ProtocolFactory factory = decorated ? forwarding(typed) : typed;
  sim::SimConfig config;
  config.seed = 7;
  config.feedback = sim::FeedbackModel::binary_ack();
  config.faults.feedback_loss_rate = 0.01;
  config.faults.crash_rate = 0.0005;
  config.faults.stall_min = 4;
  config.faults.stall_max = 16;
  config.multichannel.channels = 4;
  config.multichannel.migrate = true;
  std::int64_t job_slots = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto instance = workload::gen_batch(1024, 1024);
    state.ResumeTiming();
    const auto result = sim::run(std::move(instance), factory, config);
    job_slots += result.metrics.live_job_slots;
  }
  state.SetItemsProcessed(job_slots);
}
BENCHMARK_CAPTURE(BM_SimulatorFdmaSlot, typed, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorFdmaSlot, decorated, true)
    ->Unit(benchmark::kMillisecond);

// One ALIGNED run on gen_aligned and one PUNCTUAL run on gen_general per
// iteration, in perfbench's paper_sweep shape: gamma 1/32, fill 0.5,
// horizon 65536, a reactive jammer at 0.25 and fast-forward on; items are
// live job-slots. `typed` runs the registered factories, whose typed
// pipelines inline the per-slot calls; `decorated` runs them behind a
// forwarding decorator, i.e. the virtual-call pipeline.
void BM_SimulatorPaperSlot(benchmark::State& state, bool decorated) {
  const auto pick = [decorated](const sim::ProtocolFactory& typed) {
    return decorated ? forwarding(typed) : typed;
  };
  const sim::ProtocolFactory aligned_factory =
      pick(core::aligned::make_aligned_factory(core::Params{}));
  const sim::ProtocolFactory punctual_factory =
      pick(core::punctual::make_punctual_factory(core::Params{}));
  workload::AlignedConfig aligned;
  aligned.gamma = 1.0 / 32;
  aligned.fill = 0.5;
  aligned.horizon = 65536;
  workload::GeneralConfig general;
  general.gamma = 1.0 / 32;
  general.fill = 0.5;
  general.horizon = 65536;
  sim::SimConfig config;
  config.seed = 7;
  config.fast_forward = sim::FastForward::kOn;
  std::int64_t job_slots = 0;
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(7);
    auto aligned_jobs = workload::gen_aligned(aligned, rng);
    auto general_jobs = workload::gen_general(general, rng);
    state.ResumeTiming();
    const auto a = sim::run(std::move(aligned_jobs), aligned_factory, config,
                            sim::make_reactive_jammer(0.25));
    const auto p = sim::run(std::move(general_jobs), punctual_factory, config,
                            sim::make_reactive_jammer(0.25));
    job_slots += a.metrics.live_job_slots + p.metrics.live_job_slots;
  }
  state.SetItemsProcessed(job_slots);
}
BENCHMARK_CAPTURE(BM_SimulatorPaperSlot, typed, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorPaperSlot, decorated, true)
    ->Unit(benchmark::kMillisecond);

// Batch set-up as a whole: the Simulation ctor plus its first step(),
// which activates every job of a gen_batch(n, 4n) UNIFORM burst with
// fast-forward on (perfbench's dense_burst shape). Protocol construction
// is counted wherever the engine does it, in the ctor or at activation.
void BM_BatchActivation(benchmark::State& state) {
  const auto jobs = state.range(0);
  const sim::ProtocolFactory factory =
      core::make_uniform_factory(core::Params{});
  sim::SimConfig config;
  config.seed = 7;
  config.fast_forward = sim::FastForward::kOn;
  for (auto _ : state) {
    state.PauseTiming();
    auto instance = workload::gen_batch(jobs, 4 * jobs);
    state.ResumeTiming();
    auto sim = std::make_unique<sim::Simulation>(std::move(instance),
                                                 factory, config);
    benchmark::DoNotOptimize(sim->step());
    state.PauseTiming();
    sim.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_BatchActivation)
    ->Arg(1024)
    ->Arg(8192)
    ->Unit(benchmark::kMicrosecond);

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
  core::aligned::Tracker tracker(8, 14);
  Slot t = 0;
  for (auto _ : state) {
    tracker.begin_slot(t, p);
    tracker.end_slot(sim::SlotOutcome::kSilence, p);
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
    std::vector<std::int64_t> counts(16);
    std::size_t next = 0;
    while (!est.complete()) {
      est.record(outcomes[next++], counts);
    }
    benchmark::DoNotOptimize(est.estimate(counts, p.tau));
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
  core::aligned::Tracker tracker(15 - span, 14);
  Slot t = 0;
  for (auto _ : state) {
    tracker.begin_slot(t, p);
    benchmark::DoNotOptimize(tracker.active_class());
    tracker.end_slot(sim::SlotOutcome::kSilence, p);
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
  core::aligned::Tracker tracker(8, 14);
  util::Rng rng(3);
  std::vector<Slot> gaps(1024);
  for (Slot& gap : gaps) {
    gap = rng.below(8) == 0 ? 2 : 1;
  }
  Slot t = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    tracker.begin_slot(t, p);
    benchmark::DoNotOptimize(tracker.active_class());
    tracker.end_slot(sim::SlotOutcome::kSilence, p);
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

// One ALIGNED job-slot: on_slot then on_feedback of a class-10 job that
// tracks only its own class, on a quiet channel where each of its own
// transmissions is a lone success and every other slot is silent. It
// estimates its class, broadcasts until its data gets through and is then
// re-armed as a fresh job (a new protocol object, a new random stream).
void BM_AlignedJobStep(benchmark::State& state) {
  core::Params p;
  p.lambda = 2;
  p.tau = 8;
  p.min_class = 10;
  sim::JobInfo info;
  info.id = 0;
  info.deadline = Slot{1} << 10;
  std::uint64_t seed = 12;
  std::optional<core::aligned::AlignedProtocol> proto;
  const auto arm = [&] {
    proto.emplace(p, util::Rng(seed++));
    proto->on_activate(info);
  };
  arm();
  sim::SlotFeedback success;
  success.outcome = sim::SlotOutcome::kSuccess;
  const sim::SlotFeedback silence;
  Slot t = 0;
  for (auto _ : state) {
    const sim::SlotView view{t, t};
    const sim::SlotAction action = proto->on_slot(view);
    benchmark::DoNotOptimize(action);
    proto->on_feedback(view, action.transmit ? success : silence);
    ++t;
    if (proto->done()) {
      arm();
      t = 0;
    }
  }
}
BENCHMARK(BM_AlignedJobStep);

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

// The fault plan of perfbench's fdma_faults workload: light feedback loss
// and rare crashes that stall a job for 4-16 slots.
sim::FaultPlan fdma_fault_plan() {
  sim::FaultPlan plan;
  plan.feedback_loss_rate = 0.01;
  plan.crash_rate = 0.0005;
  plan.stall_min = 4;
  plan.stall_max = 16;
  return plan;
}

// One live job-slot of the fault phase: a tick of one job's fault state.
// The job crashes now and then, sits out its stall and restarts.
void BM_FaultTick(benchmark::State& state) {
  sim::FaultInjector injector(fdma_fault_plan(), 3);
  sim::FaultInjector::JobFaults job = injector.job(0);
  Slot t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.tick(job, 0, t));
    ++t;
  }
}
BENCHMARK(BM_FaultTick);

// One hearing job-slot of the feedback pass: one job's fault filter over a
// pre-drawn mix of silence, success and noise.
void BM_FaultPerceive(benchmark::State& state) {
  sim::FaultInjector injector(fdma_fault_plan(), 3);
  sim::FaultInjector::JobFaults job = injector.job(0);
  util::Rng rng(6);
  std::vector<sim::SlotFeedback> truth(1024);
  for (sim::SlotFeedback& fb : truth) {
    const std::uint64_t kind = rng.below(3);
    fb.outcome = static_cast<sim::SlotOutcome>(kind);
    if (fb.outcome == sim::SlotOutcome::kSuccess) {
      fb.message = sim::make_data(1);
    }
  }
  Slot t = 0;
  for (auto _ : state) {
    const sim::SlotFeedback& heard = injector.perceive(
        job, 0, t, truth[static_cast<std::size_t>(t) % 1024]);
    benchmark::DoNotOptimize(heard.outcome);
    ++t;
  }
}
BENCHMARK(BM_FaultPerceive);

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
// (null tracer — the CRMD_TRACE pointer test only), no sink (a tracer that
// stamps and counts each event as dropped), and a full JSONL sink
// (every event formatted and written to an in-memory stream). Comparing
// items/sec across the three shows what observability costs at each tier.
enum class TraceMode { kOff, kNoSink, kJsonl };

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
    slots += result.metrics.slots_simulated;
    benchmark::DoNotOptimize(result.metrics.slots_simulated);
  }
  state.SetItemsProcessed(slots);
}

void BM_TracingOff(benchmark::State& state) {
  run_traced_sim(state, TraceMode::kOff);
}
BENCHMARK(BM_TracingOff);

void BM_TracingNoSink(benchmark::State& state) {
  run_traced_sim(state, TraceMode::kNoSink);
}
BENCHMARK(BM_TracingNoSink);

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
