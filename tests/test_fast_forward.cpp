// Event-driven fast-forward correctness (DESIGN.md §6j). The contract under
// test: FastForward::kOn is bit-identical to kValidate (which re-simulates
// every skipped slot in stripped form and throws std::logic_error on any
// broken dormancy promise), kOn preserves every job outcome and integer
// metric of the slot-by-slot kOff engine, protocols without a promise and
// runs with per-slot randomness degrade to exact kOff behavior, and the
// streaming (arrival-process) engine is bit-identical to the batch engine
// on the same job set — including under forced compaction.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/beb.hpp"
#include "baselines/energy_beb.hpp"
#include "baselines/sawtooth.hpp"
#include "core/params.hpp"
#include "core/uniform.hpp"
#include "report_digest.hpp"
#include "sim/arrivals.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace crmd::sim {
namespace {

using tests::mix;
using tests::mix_stats;

/// Order-sensitive digest over everything a SimResult carries that the
/// fast-forward engine must reproduce bit-exactly (jobs bitwise, every
/// integer metric including fast_forward_slots, contention by bit
/// pattern). Local to this suite — the pinned golden digest in
/// tests/report_digest.hpp deliberately excludes the FF provenance fields.
std::uint64_t sim_digest(const SimResult& r) {
  std::uint64_t h = 0x46465357ULL;  // "FFSW"
  h = mix(h, r.jobs.size());
  for (const JobResult& j : r.jobs) {
    h = mix(h, j.id);
    h = mix(h, static_cast<std::uint64_t>(j.release));
    h = mix(h, static_cast<std::uint64_t>(j.deadline));
    h = mix(h, j.success ? 1 : 0);
    h = mix(h, static_cast<std::uint64_t>(j.success_slot));
    h = mix(h, static_cast<std::uint64_t>(j.transmissions));
    h = mix(h, static_cast<std::uint64_t>(j.live_slots));
    h = mix(h, static_cast<std::uint64_t>(j.dark_slots));
  }
  const SimMetrics& m = r.metrics;
  for (const std::int64_t v :
       {m.slots_simulated, m.slots_skipped, m.fast_forward_slots,
        m.live_peak, m.silent_slots, m.success_slots, m.noise_slots,
        m.jammed_slots, m.data_successes, m.capture_wins,
        m.collision_cost_slots}) {
    h = mix(h, static_cast<std::uint64_t>(v));
  }
  h = mix_stats(h, m.contention);
  // SimResult::stream is deliberately NOT hashed: the streaming engine
  // folds a rolling summary that batch runs leave zero-initialized, so the
  // streaming-vs-batch equivalence is over jobs + metrics (the stream
  // summary has its own consistency test below).
  return h;
}

/// Sparse stagger: long dormant stretches inside each live window plus
/// empty-live gaps between windows — the workload fast-forward exists for.
workload::Instance sparse_instance(std::int64_t jobs) {
  workload::Instance instance;
  for (std::int64_t i = 0; i < jobs; ++i) {
    instance.jobs.push_back(workload::JobSpec{i * 512, i * 512 + 256});
  }
  return instance;
}

struct Factory {
  const char* name;
  ProtocolFactory factory;
};

std::vector<Factory> promising_factories() {
  core::Params params;
  params.lambda = 2;
  std::vector<Factory> out;
  out.push_back({"uniform", core::make_uniform_factory(params)});
  out.push_back({"beb", baselines::make_beb_factory()});
  return out;
}

std::vector<std::pair<std::string, FeedbackModel>> feedback_models() {
  return {
      {"ternary", FeedbackModel{}},
      {"binary_ack", FeedbackModel::binary_ack()},
      {"collision_as_silence", FeedbackModel::collision_as_silence()},
      {"capture:0.5", FeedbackModel::capture(0.5)},
  };
}

SimResult run_with(const workload::Instance& instance,
                   const ProtocolFactory& factory, FastForward ff,
                   const FeedbackModel& feedback, int cost,
                   std::uint64_t seed = 99) {
  SimConfig config;
  config.seed = seed;
  config.fast_forward = ff;
  config.feedback = feedback;
  config.collision_cost = cost;
  return run(instance, factory, config);
}

// kOn must be bit-identical to kValidate — and kValidate must not throw —
// across protocols x feedback models x collision costs x workloads. This
// is the central FF correctness claim: the validating engine *simulates*
// every skipped slot and checks the dormancy promises, so digest equality
// proves the skip accounted exactly what simulation would have.
TEST(FastForward, OnMatchesValidateAcrossModels) {
  const auto workloads = std::vector<std::pair<std::string, workload::Instance>>{
      {"sparse", sparse_instance(48)},
      {"burst", workload::gen_batch(48, 4096)},
  };
  std::int64_t total_ff_slots = 0;
  for (const Factory& f : promising_factories()) {
    for (const auto& [fb_name, feedback] : feedback_models()) {
      for (const int cost : {1, 3}) {
        for (const auto& [wl_name, instance] : workloads) {
          const SimResult on =
              run_with(instance, f.factory, FastForward::kOn, feedback,
                       cost);
          SimResult validated;
          ASSERT_NO_THROW(
              validated = run_with(instance, f.factory,
                                   FastForward::kValidate, feedback, cost))
              << f.name << "/" << fb_name << "/cost=" << cost << "/"
              << wl_name;
          EXPECT_EQ(sim_digest(on), sim_digest(validated))
              << f.name << "/" << fb_name << "/cost=" << cost << "/"
              << wl_name;
          total_ff_slots += on.metrics.fast_forward_slots;
        }
      }
    }
  }
  // The sweep must actually exercise the skip path, not vacuously pass.
  EXPECT_GT(total_ff_slots, 0);
}

// kOn preserves the slot-by-slot engine's results: jobs bitwise, every
// integer metric, and the contention distribution in count/min/max (its
// mean and variance may differ from kOff only by floating-point
// reassociation of the batched Welford update).
void expect_matches_slot_by_slot(const SimResult& on, const SimResult& off,
                                 const std::string& label) {
  EXPECT_EQ(off.metrics.fast_forward_slots, 0) << label;
  ASSERT_EQ(on.jobs.size(), off.jobs.size()) << label;
  for (std::size_t i = 0; i < on.jobs.size(); ++i) {
    EXPECT_EQ(on.jobs[i].success, off.jobs[i].success) << label;
    EXPECT_EQ(on.jobs[i].success_slot, off.jobs[i].success_slot) << label;
    EXPECT_EQ(on.jobs[i].transmissions, off.jobs[i].transmissions) << label;
    EXPECT_EQ(on.jobs[i].live_slots, off.jobs[i].live_slots) << label;
  }
  EXPECT_EQ(on.metrics.slots_simulated, off.metrics.slots_simulated)
      << label;
  EXPECT_EQ(on.metrics.slots_skipped, off.metrics.slots_skipped) << label;
  EXPECT_EQ(on.metrics.silent_slots, off.metrics.silent_slots) << label;
  EXPECT_EQ(on.metrics.success_slots, off.metrics.success_slots) << label;
  EXPECT_EQ(on.metrics.noise_slots, off.metrics.noise_slots) << label;
  EXPECT_EQ(on.metrics.live_peak, off.metrics.live_peak) << label;
  EXPECT_EQ(on.metrics.contention.count(), off.metrics.contention.count())
      << label;
  EXPECT_EQ(on.metrics.contention.min(), off.metrics.contention.min())
      << label;
  EXPECT_EQ(on.metrics.contention.max(), off.metrics.contention.max())
      << label;
  EXPECT_NEAR(on.metrics.contention.mean(), off.metrics.contention.mean(),
              1e-9)
      << label;
}

TEST(FastForward, OnPreservesSlotBySlotResults) {
  for (const Factory& f : promising_factories()) {
    const workload::Instance instance = sparse_instance(64);
    const SimResult off = run_with(instance, f.factory, FastForward::kOff,
                                   FeedbackModel{}, 1);
    const SimResult on = run_with(instance, f.factory, FastForward::kOn,
                                  FeedbackModel{}, 1);
    EXPECT_GT(on.metrics.fast_forward_slots, 0) << f.name;
    expect_matches_slot_by_slot(on, off, f.name);
  }
}

// ---------------------------------------------------------------------------
// Per-job parking: contention paths, validation in stepped slots, call counts
// ---------------------------------------------------------------------------

/// One protocol per job by id: UNIFORM (ids 0 and 1 mod 4), BEB (2 mod 4)
/// and ENERGY_BEB (3 mod 4, BEB again with `dyadic_only`), so parked and
/// awake jobs of every kind share slots.
ProtocolFactory mixed_factory(bool dyadic_only = false) {
  core::Params params;
  params.lambda = 2;
  const ProtocolFactory uniform = core::make_uniform_factory(params);
  const ProtocolFactory beb = baselines::make_beb_factory();
  const ProtocolFactory energy_beb = baselines::make_energy_beb_factory(params);
  return ProtocolFactory([=](const JobInfo& info, util::Rng rng) {
    switch (info.id % 4) {
      case 0:
      case 1:
        return uniform(info, std::move(rng));
      case 2:
        return beb(info, std::move(rng));
      default:
        return dyadic_only ? beb(info, std::move(rng))
                           : energy_beb(info, std::move(rng));
    }
  });
}

/// Releases `gap` slots apart for mixed_factory (ids follow release order).
/// Windows are 1024, so UNIFORM and BEB declare multiples of 2^-32, except
/// that the UNIFORM jobs with id 1 mod 4 get window 1000 (a probability
/// that is no such multiple) unless `dyadic_only`.
workload::Instance mixed_instance(std::int64_t jobs, Slot gap,
                                  bool dyadic_only = false) {
  workload::Instance instance;
  for (std::int64_t i = 0; i < jobs; ++i) {
    const Slot window = !dyadic_only && i % 4 == 1 ? 1000 : 1024;
    instance.jobs.push_back(workload::JobSpec{i * gap, i * gap + window});
  }
  return instance;
}

// The two ways the engine sums contention while jobs are parked — integer
// units of 2^-32 when every probability is such a multiple, the live-order
// fold over cached probabilities otherwise — must both reproduce the
// slot-by-slot engine: kOn equals kValidate digest for digest, and kOff's
// results hold at the tolerances above.
TEST(FastForward, MixedContentionPathsMatchValidateAndOff) {
  core::Params params;
  params.lambda = 2;
  const ProtocolFactory uniform = core::make_uniform_factory(params);
  const auto cases =
      std::vector<std::tuple<std::string, workload::Instance, ProtocolFactory>>{
          {"mixed/stagger", mixed_instance(64, 96), mixed_factory()},
          {"mixed/burst", mixed_instance(64, 0), mixed_factory()},
          {"dyadic/stagger", mixed_instance(64, 96, true), mixed_factory(true)},
          {"uniform@1024/burst", workload::gen_batch(64, 1024), uniform},
          {"uniform@1000/burst", workload::gen_batch(64, 1000), uniform},
      };
  for (const auto& [name, instance, factory] : cases) {
    for (const auto& [fb_name, feedback] : feedback_models()) {
      for (const int cost : {1, 3}) {
        const std::string label =
            name + "/" + fb_name + "/cost=" + std::to_string(cost);
        const SimResult on =
            run_with(instance, factory, FastForward::kOn, feedback, cost);
        SimResult validated;
        ASSERT_NO_THROW(validated = run_with(instance, factory,
                                             FastForward::kValidate,
                                             feedback, cost))
            << label;
        EXPECT_EQ(sim_digest(on), sim_digest(validated)) << label;
        const SimResult off =
            run_with(instance, factory, FastForward::kOff, feedback, cost);
        expect_matches_slot_by_slot(on, off, label);
      }
    }
  }
}

// An observer suppresses skips but not parking, so every slot is stepped
// with parked jobs contributing their promises: the per-slot contention
// must equal kOff's bit for bit on both summation paths, and so must the
// whole result.
TEST(FastForward, ParkedContentionIsExactPerSlot) {
  const auto cases =
      std::vector<std::tuple<std::string, workload::Instance, ProtocolFactory>>{
          {"mixed", mixed_instance(64, 8), mixed_factory()},
          {"dyadic", mixed_instance(64, 8, true), mixed_factory(true)},
      };
  const auto observed = [](const workload::Instance& instance,
                           const ProtocolFactory& factory, FastForward ff,
                           std::vector<double>* out) {
    SimConfig config;
    config.seed = 3;
    config.fast_forward = ff;
    Simulation simulation(instance, factory, config);
    simulation.set_observer(
        [out](const SlotRecord& rec, std::span<const Transmission>) {
          out->push_back(rec.contention);
        });
    return simulation.finish();
  };
  for (const auto& [name, instance, factory] : cases) {
    std::vector<double> on_contention;
    std::vector<double> off_contention;
    const SimResult on =
        observed(instance, factory, FastForward::kOn, &on_contention);
    const SimResult off =
        observed(instance, factory, FastForward::kOff, &off_contention);
    EXPECT_FALSE(on_contention.empty()) << name;
    EXPECT_EQ(on_contention, off_contention) << name;
    EXPECT_EQ(sim_digest(on), sim_digest(off)) << name;
  }
}

/// Promises dormancy for its whole window but transmits at
/// since_release == kBreak: a broken promise.
class BrokenPromise final : public Protocol {
 public:
  static constexpr Slot kBreak = 5;
  void on_activate(const JobInfo& info) override { info_ = info; }
  SlotAction on_slot(const SlotView& view) override {
    SlotAction action;
    action.sleep = true;
    if (view.since_release == kBreak) {
      action.transmit = true;
      action.message = make_data(info_.id);
      action.declared_prob = 1.0;
    }
    return action;
  }
  void on_feedback(const SlotView& /*view*/,
                   const SlotFeedback& /*fb*/) override {}
  [[nodiscard]] bool done() const override { return false; }
  [[nodiscard]] DormantSpan dormant_span(
      const SlotView& view) const override {
    return {info_.window() - view.since_release, 0.0};
  }

 private:
  JobInfo info_;
};

/// Listens every slot and never promises, so no slot it is live in can be
/// skipped.
class AlwaysListening final : public Protocol {
 public:
  void on_activate(const JobInfo& /*info*/) override {}
  SlotAction on_slot(const SlotView& /*view*/) override { return {}; }
  void on_feedback(const SlotView& /*view*/,
                   const SlotFeedback& /*fb*/) override {}
  [[nodiscard]] bool done() const override { return false; }
};

// A promise broken in a slot that another job forces to be stepped is
// never inside a skipped span, so only the per-slot check of parked jobs
// can catch it: kOn parks the liar and runs through, kValidate throws.
TEST(FastForward, ValidateChecksParkedJobsInSteppedSlots) {
  const ProtocolFactory factory(
      [](const JobInfo& info, util::Rng /*rng*/) -> std::unique_ptr<Protocol> {
        if (info.id == 0) {
          return std::make_unique<BrokenPromise>();
        }
        return std::make_unique<AlwaysListening>();
      });
  // Job 0 comes first in live order, so it is queried (and parked) before
  // job 1 refuses.
  workload::Instance instance;
  instance.jobs = {workload::JobSpec{0, 64}, workload::JobSpec{0, 64}};
  SimConfig config;
  config.fast_forward = FastForward::kOn;
  SimResult on;
  ASSERT_NO_THROW(on = run(instance, factory, config));
  EXPECT_EQ(on.metrics.fast_forward_slots, 0);
  config.fast_forward = FastForward::kValidate;
  EXPECT_THROW((void)run(instance, factory, config), std::logic_error);
}

/// Counts every protocol call the engine makes, forwarding to the wrapped
/// protocol.
class CallCounter final : public Protocol {
 public:
  CallCounter(std::unique_ptr<Protocol> inner, std::int64_t* calls)
      : inner_(std::move(inner)), calls_(calls) {}
  void on_activate(const JobInfo& info) override {
    ++*calls_;
    inner_->on_activate(info);
  }
  SlotAction on_slot(const SlotView& view) override {
    ++*calls_;
    return inner_->on_slot(view);
  }
  void on_feedback(const SlotView& view, const SlotFeedback& fb) override {
    ++*calls_;
    inner_->on_feedback(view, fb);
  }
  [[nodiscard]] bool done() const override {
    ++*calls_;
    return inner_->done();
  }
  [[nodiscard]] DormantSpan dormant_span(
      const SlotView& view) const override {
    ++*calls_;
    return inner_->dormant_span(view);
  }

 private:
  std::unique_ptr<Protocol> inner_;
  std::int64_t* calls_;
};

// A dense burst of UNIFORM jobs sleeps everywhere but its attempt slots,
// so with per-job parking a job costs a few calls per attempt plus the
// slots it is actually awake — not one tick per live slot. The slot-by-slot
// engine makes 3 calls per live job-slot here (hundreds of thousands);
// parking must stay within a small constant per job plus O(stepped slots).
TEST(FastForward, DenseBurstTicksOnlyDueJobs) {
  constexpr std::int64_t kJobs = 2048;
  core::Params params;
  params.lambda = 2;
  const ProtocolFactory uniform = core::make_uniform_factory(params);
  std::int64_t calls = 0;
  const ProtocolFactory counted(
      [&](const JobInfo& info, util::Rng rng) -> std::unique_ptr<Protocol> {
        return std::make_unique<CallCounter>(uniform(info, std::move(rng)),
                                             &calls);
      });
  const workload::Instance instance = workload::gen_batch(kJobs, 4 * kJobs);
  SimConfig config;
  config.seed = 17;
  config.fast_forward = FastForward::kOn;
  const SimResult on = run(instance, counted, config);
  const std::int64_t stepped =
      on.metrics.slots_simulated - on.metrics.fast_forward_slots;
  EXPECT_GT(on.metrics.fast_forward_slots, 0);
  EXPECT_GT(stepped, 0);
  EXPECT_LE(calls, 8 * kJobs + 2 * stepped)
      << "stepped slots: " << stepped
      << ", live job-slots: " << on.metrics.live_job_slots;

  // Same results as the counted-free slot-by-slot run.
  config.fast_forward = FastForward::kOff;
  const SimResult off = run(instance, uniform, config);
  expect_matches_slot_by_slot(on, off, "dense burst");
}

// A protocol without a dormancy promise (sawtooth inherits the no-promise
// default) makes fast-forward a provable no-op: zero skipped slots and a
// digest identical to kOff down to the last contention bit.
TEST(FastForward, NoPromiseProtocolDegradesToExactOff) {
  const auto sawtooth = baselines::make_sawtooth_factory();
  const workload::Instance instance = sparse_instance(32);
  const SimResult off =
      run_with(instance, sawtooth, FastForward::kOff, FeedbackModel{}, 1);
  const SimResult on =
      run_with(instance, sawtooth, FastForward::kOn, FeedbackModel{}, 1);
  EXPECT_EQ(on.metrics.fast_forward_slots, 0);
  EXPECT_EQ(sim_digest(on), sim_digest(off));
}

// Per-slot randomness the skip cannot reproduce disables fast-forward
// outright: a jammer consumes a draw per slot, so kOn silently becomes
// exact kOff behavior rather than skewing the jam stream.
TEST(FastForward, JammerDisablesFastForward) {
  core::Params params;
  params.lambda = 2;
  const auto uniform = core::make_uniform_factory(params);
  const workload::Instance instance = sparse_instance(32);
  const auto run_jammed = [&](FastForward ff) {
    SimConfig config;
    config.seed = 7;
    config.fast_forward = ff;
    return run(instance, uniform, config, make_blanket_jammer(0.2));
  };
  const SimResult off = run_jammed(FastForward::kOff);
  const SimResult on = run_jammed(FastForward::kOn);
  EXPECT_EQ(on.metrics.fast_forward_slots, 0);
  EXPECT_EQ(sim_digest(on), sim_digest(off));
}

// A SlotObserver needs every slot materialized; installing one suppresses
// skips (results still exact) so observers never see gaps.
TEST(FastForward, ObserverSuppressesSkips) {
  core::Params params;
  params.lambda = 2;
  const auto uniform = core::make_uniform_factory(params);
  SimConfig config;
  config.seed = 11;
  config.fast_forward = FastForward::kOn;
  Simulation simulation(sparse_instance(16), uniform, config);
  std::int64_t observed = 0;
  simulation.set_observer(
      [&](const SlotRecord&, std::span<const Transmission>) { ++observed; });
  const SimResult result = simulation.finish();
  EXPECT_EQ(result.metrics.fast_forward_slots, 0);
  EXPECT_EQ(observed, result.metrics.slots_simulated);
}

// ---------------------------------------------------------------------------
// Streaming-vs-batch bit equality
// ---------------------------------------------------------------------------

workload::Instance poisson_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  workload::Instance instance =
      workload::gen_poisson(0.02, 1024, 4096, rng);
  instance.normalize();
  return instance;
}

SimResult run_streamed(const workload::Instance& instance,
                       const ProtocolFactory& factory, SimConfig config) {
  return run_stream(std::make_unique<VectorArrivals>(instance.jobs), factory,
                    std::move(config));
}

// Feeding the engine the same normalized job list through a VectorArrivals
// process must reproduce the batch run bit-for-bit: same ids, same
// per-job protocol streams, same metrics — with fast-forward off and on,
// and under a compaction threshold small enough to force many array
// erasures mid-run.
TEST(FastForward, StreamingMatchesBatchBitExactly) {
  core::Params params;
  params.lambda = 2;
  const auto uniform = core::make_uniform_factory(params);
  const workload::Instance instance = poisson_instance(123);
  ASSERT_FALSE(instance.empty());
  const Slot horizon = instance.max_deadline();

  for (const FastForward ff : {FastForward::kOff, FastForward::kOn}) {
    SimConfig config;
    config.seed = 42;
    config.horizon = horizon;
    config.fast_forward = ff;
    const SimResult batch = run(instance, uniform, config);
    const SimResult streamed = run_streamed(instance, uniform, config);
    EXPECT_EQ(sim_digest(batch), sim_digest(streamed))
        << "ff=" << static_cast<int>(ff);
    // jobs come back sorted by id in both modes.
    ASSERT_EQ(streamed.jobs.size(), instance.size());

    // Forced compaction must be invisible in the results.
    SimConfig tight = config;
    tight.stream_compact = 2;
    const SimResult compacted = run_streamed(instance, uniform, tight);
    EXPECT_EQ(sim_digest(batch), sim_digest(compacted))
        << "ff=" << static_cast<int>(ff) << " (stream_compact=2)";
  }
}

// Parked jobs sit in the wakeup heap under their global job id, so they
// survive the streaming engine's array compaction: with the threshold at 1
// (compact whenever half the arrays are dead) a kOn stream of mixed
// protocols matches the batch run bit for bit.
TEST(FastForward, StreamingCompactionKeepsParkedJobs) {
  const ProtocolFactory mixed = mixed_factory();
  for (const workload::Instance& instance :
       {poisson_instance(77), mixed_instance(96, 200)}) {
    SimConfig config;
    config.seed = 8;
    config.horizon = instance.max_deadline();
    config.fast_forward = FastForward::kOn;
    config.stream_compact = 1;
    const SimResult batch = run(instance, mixed, config);
    const SimResult streamed = run_streamed(instance, mixed, config);
    EXPECT_GT(streamed.metrics.fast_forward_slots, 0);
    EXPECT_EQ(sim_digest(batch), sim_digest(streamed));
  }
}

// keep_job_results=false is the bounded-memory mode: per-job results are
// dropped but the rolling StreamSummary must still agree with what the
// full-results run folded.
TEST(FastForward, StreamSummaryMatchesKeptResults) {
  core::Params params;
  params.lambda = 2;
  const auto uniform = core::make_uniform_factory(params);
  const workload::Instance instance = poisson_instance(321);
  ASSERT_FALSE(instance.empty());

  SimConfig config;
  config.seed = 5;
  config.horizon = instance.max_deadline();
  const SimResult kept = run_streamed(instance, uniform, config);
  SimConfig summary_only = config;
  summary_only.keep_job_results = false;
  const SimResult summary = run_streamed(instance, uniform, summary_only);

  EXPECT_TRUE(summary.jobs.empty());
  EXPECT_EQ(kept.stream.jobs,
            static_cast<std::int64_t>(instance.size()));
  EXPECT_EQ(summary.stream.jobs, kept.stream.jobs);
  EXPECT_EQ(summary.stream.delivered, kept.stream.delivered);
  EXPECT_EQ(summary.stream.delivered, kept.successes());
  EXPECT_EQ(summary.stream.latency.count(), kept.stream.latency.count());
  EXPECT_EQ(summary.stream.latency.mean(), kept.stream.latency.mean());
  EXPECT_EQ(summary.stream.accesses.mean(), kept.stream.accesses.mean());
}

}  // namespace
}  // namespace crmd::sim
