// Differential test of the typed slot pipeline (DESIGN.md §6e).
//
// A factory from make_arena_factory<P> carries step_slot<P>, the engine's
// slot pipeline with P's per-slot calls bound directly. A forwarding
// decorator around the same factory carries none, so the engine runs
// step_slot<Protocol>, whose calls are virtual. For every registered
// protocol and three seeds, each configuration below runs the same input
// both ways and requires every JobResult and SimMetrics field, the whole
// traced event stream and the observer's slot records to be equal:
//
//  - k = 1, ternary feedback, a reactive jammer;
//  - k = 4 with migration, binary_ack and fdma_faults' fault plan (loss
//    0.01, crash 0.0005, stalls of 4 to 16 slots);
//  - --fast-forward=on with an observer installed (jobs park; the observer
//    keeps every slot materialized).
//
// Two more tests pin the dispatch itself: each registered factory carries
// exactly step_slot of its class, and a decorated factory carries nothing,
// so its decorator sees every per-slot call.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aloha.hpp"
#include "baselines/beb.hpp"
#include "baselines/energy_beb.hpp"
#include "baselines/sawtooth.hpp"
#include "core/aligned/protocol.hpp"
#include "core/nocd/protocol.hpp"
#include "core/params.hpp"
#include "core/punctual/protocol.hpp"
#include "core/registry.hpp"
#include "core/uniform.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workload/instance.hpp"

namespace crmd::tests {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

/// Per-slot calls a Forwarding decorator passed on, over a whole run.
struct Calls {
  std::int64_t on_slot = 0;
  std::int64_t on_feedback = 0;
  std::int64_t done = 0;
};

/// Forwards every Protocol call to the protocol it wraps, counting the
/// per-slot ones: the shape of a decorator that times or logs them. It
/// hands the engine's tracer on before activation, as a decorator must.
class Forwarding final : public sim::Protocol {
 public:
  Forwarding(sim::Protocol* inner, bool arena_owned, Calls* calls) noexcept
      : inner_(inner), arena_owned_(arena_owned), calls_(calls) {}

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
    ++calls_->on_slot;
    return inner_->on_slot(view);
  }

  void on_feedback(const sim::SlotView& view,
                   const sim::SlotFeedback& fb) override {
    ++calls_->on_feedback;
    inner_->on_feedback(view, fb);
  }

  [[nodiscard]] bool done() const override {
    ++calls_->done;
    return inner_->done();
  }

  [[nodiscard]] sim::DormantSpan dormant_span(
      const sim::SlotView& view) const override {
    return inner_->dormant_span(view);
  }

 private:
  sim::Protocol* inner_;
  bool arena_owned_;
  Calls* calls_;
};

/// `inner` behind a Forwarding decorator, on both construction paths.
sim::ProtocolFactory decorate(const sim::ProtocolFactory& inner,
                              const std::shared_ptr<Calls>& calls) {
  sim::ProtocolFactory::HeapFn heap =
      [inner, calls](const sim::JobInfo& info,
                     util::Rng rng) -> std::unique_ptr<sim::Protocol> {
    return std::make_unique<Forwarding>(inner(info, rng).release(), false,
                                        calls.get());
  };
  sim::ProtocolFactory::ArenaFn arena =
      [inner, calls](const sim::JobInfo& info, util::Rng rng,
                     util::MonotonicArena& a) -> sim::Protocol* {
    return a.create<Forwarding>(inner.emplace(info, rng, a), true,
                                calls.get());
  };
  return sim::ProtocolFactory(std::move(heap), std::move(arena));
}

sim::ProtocolFactory registered(const std::string& name) {
  const auto factory = core::make_protocol(name, core::Params{});
  EXPECT_TRUE(factory.has_value()) << name;
  return *factory;
}

enum class Setup { kJammedTernary, kFdmaFaults, kFastForwardObserved };

/// One run's every observable output.
struct Observed {
  sim::SimResult result;
  std::vector<sim::SlotRecord> slots;
  std::vector<obs::TraceEvent> events;
};

Observed run(Setup setup, const sim::ProtocolFactory& factory,
             std::uint64_t seed) {
  sim::SimConfig config;
  config.seed = seed;
  util::Rng gen(seed);
  workload::AlignedConfig aligned;
  aligned.min_class = 7;
  aligned.max_class = 10;
  aligned.horizon = 4096;
  aligned.fill = 0.5;
  workload::Instance instance;
  std::unique_ptr<sim::Jammer> jammer;
  switch (setup) {
    case Setup::kJammedTernary:
      instance = workload::gen_aligned(aligned, gen);
      jammer = sim::make_reactive_jammer(0.25);
      break;
    case Setup::kFdmaFaults:
      instance = workload::gen_batch(128, 512);
      config.feedback = sim::FeedbackModel::binary_ack();
      config.faults.feedback_loss_rate = 0.01;
      config.faults.crash_rate = 0.0005;
      config.faults.stall_min = 4;
      config.faults.stall_max = 16;
      config.multichannel.channels = 4;
      config.multichannel.migrate = true;
      break;
    case Setup::kFastForwardObserved:
      instance = workload::gen_aligned(aligned, gen);
      config.fast_forward = sim::FastForward::kOn;
      break;
  }
  obs::Tracer tracer;
  const auto sink = std::make_shared<obs::CollectSink>();
  tracer.add_sink(sink);
  config.tracer = &tracer;
  Observed out;
  sim::Simulation simulation(std::move(instance), factory, config,
                             std::move(jammer));
  simulation.set_observer([&out](const sim::SlotRecord& rec,
                                 std::span<const sim::Transmission>) {
    out.slots.push_back(rec);
  });
  out.result = simulation.finish();
  tracer.close();
  EXPECT_EQ(tracer.dropped(), 0U);
  out.events = sink->take();
  return out;
}

void expect_stats_equal(const util::RunningStats& a,
                        const util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_metrics_equal(const sim::SimMetrics& a, const sim::SimMetrics& b) {
  EXPECT_EQ(a.slots_simulated, b.slots_simulated);
  EXPECT_EQ(a.slots_skipped, b.slots_skipped);
  EXPECT_EQ(a.fast_forward_slots, b.fast_forward_slots);
  EXPECT_EQ(a.live_peak, b.live_peak);
  EXPECT_EQ(a.silent_slots, b.silent_slots);
  EXPECT_EQ(a.success_slots, b.success_slots);
  EXPECT_EQ(a.noise_slots, b.noise_slots);
  EXPECT_EQ(a.jammed_slots, b.jammed_slots);
  EXPECT_EQ(a.data_successes, b.data_successes);
  EXPECT_EQ(a.control_successes, b.control_successes);
  EXPECT_EQ(a.start_successes, b.start_successes);
  EXPECT_EQ(a.claim_successes, b.claim_successes);
  EXPECT_EQ(a.timekeeper_successes, b.timekeeper_successes);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.feedback_corruptions, b.feedback_corruptions);
  EXPECT_EQ(a.feedback_losses, b.feedback_losses);
  EXPECT_EQ(a.clock_skew_events, b.clock_skew_events);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.dark_job_slots, b.dark_job_slots);
  EXPECT_EQ(a.live_job_slots, b.live_job_slots);
  EXPECT_EQ(a.feedback_flips, b.feedback_flips);
  EXPECT_EQ(a.slots_awake, b.slots_awake);
  EXPECT_EQ(a.slots_listening, b.slots_listening);
  EXPECT_EQ(a.slots_transmitting, b.slots_transmitting);
  EXPECT_EQ(a.capture_wins, b.capture_wins);
  EXPECT_EQ(a.collision_cost_slots, b.collision_cost_slots);
  expect_stats_equal(a.contention, b.contention);
}

void expect_jobs_equal(const std::vector<sim::JobResult>& a,
                       const std::vector<sim::JobResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].release, b[i].release);
    EXPECT_EQ(a[i].deadline, b[i].deadline);
    EXPECT_EQ(a[i].success, b[i].success);
    EXPECT_EQ(a[i].success_slot, b[i].success_slot);
    EXPECT_EQ(a[i].transmissions, b[i].transmissions);
    EXPECT_EQ(a[i].live_slots, b[i].live_slots);
    EXPECT_EQ(a[i].dark_slots, b[i].dark_slots);
    EXPECT_EQ(a[i].listen_slots, b[i].listen_slots);
  }
}

void expect_slots_equal(const std::vector<sim::SlotRecord>& a,
                        const std::vector<sim::SlotRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("slot record " + std::to_string(i));
    EXPECT_EQ(a[i].slot, b[i].slot);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].success_kind, b[i].success_kind);
    EXPECT_EQ(a[i].contention, b[i].contention);
    EXPECT_EQ(a[i].transmitters, b[i].transmitters);
    EXPECT_EQ(a[i].live_jobs, b[i].live_jobs);
    EXPECT_EQ(a[i].jammed, b[i].jammed);
    EXPECT_EQ(a[i].faults, b[i].faults);
  }
}

/// Runs `setup` for every registered protocol and seed, typed and
/// decorated, and requires the two runs to agree on everything.
void expect_typed_matches_virtual(Setup setup) {
  for (const std::string& name : core::protocol_names()) {
    const sim::ProtocolFactory typed = registered(name);
    const sim::ProtocolFactory decorated =
        decorate(typed, std::make_shared<Calls>());
    ASSERT_NE(typed.pipeline(), nullptr) << name;
    ASSERT_EQ(decorated.pipeline(), nullptr) << name;
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(name + " seed " + std::to_string(seed));
      const Observed want = run(setup, decorated, seed);
      const Observed got = run(setup, typed, seed);
      ASSERT_FALSE(want.result.jobs.empty());
      expect_jobs_equal(want.result.jobs, got.result.jobs);
      expect_metrics_equal(want.result.metrics, got.result.metrics);
      expect_slots_equal(want.slots, got.slots);
      test::expect_events_identical(want.events, got.events);
    }
  }
}

TEST(TypedPipeline, JammedTernaryMatchesVirtualPipeline) {
  expect_typed_matches_virtual(Setup::kJammedTernary);
}

TEST(TypedPipeline, FdmaFaultsMatchesVirtualPipeline) {
  expect_typed_matches_virtual(Setup::kFdmaFaults);
}

TEST(TypedPipeline, ObservedFastForwardMatchesVirtualPipeline) {
  expect_typed_matches_virtual(Setup::kFastForwardObserved);
}

template <typename P>
void expect_pipeline(const std::string& name) {
  EXPECT_EQ(registered(name).pipeline(), &sim::step_slot<P>) << name;
}

TEST(TypedPipeline, RegisteredFactoriesCarryTheirClassPipeline) {
  expect_pipeline<core::UniformProtocol>("uniform");
  expect_pipeline<core::aligned::AlignedProtocol>("aligned");
  expect_pipeline<core::punctual::PunctualProtocol>("punctual");
  expect_pipeline<core::nocd::NocdProtocol>("nocd");
  expect_pipeline<core::nocd::NocdProtocol>("nocd_robust");
  expect_pipeline<baselines::BebProtocol>("beb");
  expect_pipeline<baselines::EnergyBebProtocol>("energy_beb");
  expect_pipeline<baselines::SawtoothProtocol>("sawtooth");
  expect_pipeline<baselines::AlohaProtocol>("aloha");
  // A factory of lambdas, like a decorator's, has no class to bind.
  EXPECT_EQ(test::script_factory({0}).pipeline(), nullptr);
}

// A decorated factory does not inherit the pipeline of the factory it
// wraps: with no faults and no parking, every live job-slot makes one
// on_slot, one on_feedback and one done() call, and the decorator counts
// every one of them.
TEST(TypedPipeline, DecoratorSeesEveryPerSlotCall) {
  for (const std::string& name : core::protocol_names()) {
    SCOPED_TRACE(name);
    const auto calls = std::make_shared<Calls>();
    const Observed out =
        run(Setup::kJammedTernary, decorate(registered(name), calls), 1);
    std::int64_t job_slots = 0;
    for (const sim::JobResult& job : out.result.jobs) {
      job_slots += job.live_slots;
    }
    ASSERT_GT(job_slots, 0);
    EXPECT_EQ(job_slots, out.result.metrics.live_job_slots);
    EXPECT_EQ(calls->on_slot, job_slots);
    EXPECT_EQ(calls->on_feedback, job_slots);
    EXPECT_EQ(calls->done, job_slots);
  }
}

}  // namespace
}  // namespace crmd::tests
