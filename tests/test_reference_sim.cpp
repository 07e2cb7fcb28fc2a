// Differential test of the engine against the naive reference simulator in
// reference_sim.hpp (DESIGN.md §6e).
//
// A master-seeded Rng draws cases over protocol × feedback model × fault
// plan × jammer (single channel only) × collision cost × channel count
// (with and without migration) × batch vs run_stream(VectorArrivals) ×
// horizon cut × fast-forward mode. Each case runs the engine and the
// reference on the same seed and requires:
//
//  - under --fast-forward=off: every JobResult field, every SimMetrics
//    field (the contention RunningStats bit for bit) and the stream summary
//    to be equal, and in a recorded case also every slot record (the
//    engine's through Simulation::set_observer) and every fault event (each
//    side's kFault events on a tracer of its own);
//  - under --fast-forward=on: the same, except that the contention mean
//    and variance may differ in the last bit (a skipped run is folded in
//    one batched update, see tests/report_digest.hpp) and
//    fast_forward_slots, which counts how the engine covered the slots and
//    is zero in the reference by construction, is only range-checked.
//
// The suite is deterministic end to end: kMasterSeed fixes every case. On
// failure each assertion prints a REPRODUCE line with the master seed, the
// case index and the full case spec.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "core/registry.hpp"
#include "obs/trace.hpp"
#include "reference_sim.hpp"
#include "sim/arrivals.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/instance.hpp"

namespace crmd::tests {
namespace {

constexpr std::uint64_t kMasterSeed = 0x5245464552454E43ULL;  // "REFERENC"
constexpr int kCases = 600;

const char* const kFeedbackSpecs[] = {"ternary",    "binary_ack",
                                      "collision_as_silence",
                                      "noisy:0.1",  "capture:0.5",
                                      "capture:0"};
// Only these compose with channels > 1 (SimConfig::validate).
constexpr std::uint64_t kMultichannelFeedbacks = 3;

const char* const kJammers[] = {"none", "blanket", "reactive", "adaptive"};

/// A test-local protocol that breaks the sleep contract on purpose: it
/// declares sleep on every third slot it does not transmit in, yet its
/// state reacts to whatever it hears. Only the engine's sleep scrub keeps
/// it from learning on those slots, so it makes that scrub observable.
/// Every other transmission is a control message, so a captured or jammed
/// transmitter stays live and what it perceived matters. It also has only
/// a heap factory, so batch runs of it take the engine's heap allocation
/// path.
class SleepLiar final : public sim::Protocol {
 public:
  explicit SleepLiar(util::Rng rng) : rng_(std::move(rng)) {}

  void on_activate(const sim::JobInfo& info) override { id_ = info.id; }

  sim::SlotAction on_slot(const sim::SlotView& view) override {
    sim::SlotAction action;
    action.declared_prob = 1.0 / static_cast<double>(2 + heard_busy_);
    action.transmit = rng_.bernoulli(action.declared_prob);
    action.sleep = !action.transmit && view.since_release % 3 == 0;
    action.message.kind = sent_ % 2 == 0 ? sim::MessageKind::kControl
                                         : sim::MessageKind::kData;
    action.message.sender = id_;
    sent_ += action.transmit ? 1 : 0;
    return action;
  }

  void on_feedback(const sim::SlotView& /*view*/,
                   const sim::SlotFeedback& fb) override {
    heard_busy_ += static_cast<int>(fb.outcome);  // 0, 1 or 2
  }

  [[nodiscard]] bool done() const override { return heard_busy_ >= 9; }

 private:
  util::Rng rng_;
  JobId id_ = kNoJob;
  int sent_ = 0;
  int heard_busy_ = 0;
};

constexpr const char* kSleepLiar = "sleep_liar";

sim::ProtocolFactory make_factory(const std::string& name,
                                  const core::Params& params) {
  if (name == kSleepLiar) {
    return [](const sim::JobInfo& /*info*/, util::Rng rng) {
      return std::make_unique<SleepLiar>(std::move(rng));
    };
  }
  return *core::make_protocol(name, params);
}

struct Case {
  int index = 0;
  std::string protocol;
  int feedback = 0;  // index into kFeedbackSpecs
  // Runs the ternary draw as unaware_no_cd instead (the ablation was once
  // a ternary-only flag; the draw keeps that shape so no case moves).
  bool legacy_no_cd = false;
  bool faults = false;
  int jammer = 0;  // index into kJammers
  int cost = 1;
  int channels = 1;
  bool migrate = false;
  bool stream = false;
  bool cut = false;
  bool record = false;
  bool fast_forward = false;
  int min_level = 4;
  // ALIGNED's Params: the pecking order, and how far Params::min_class
  // lies above min_level (windows below it track only their own class).
  bool pecking_order = true;
  int min_class_above = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] std::string spec() const {
    std::ostringstream out;
    out << "protocol=" << protocol << " feedback=" << kFeedbackSpecs[feedback]
        << " legacy_no_cd=" << legacy_no_cd << " faults=" << faults
        << " jammer=" << kJammers[jammer] << " cost=" << cost
        << " channels=" << channels << " migrate=" << migrate
        << " stream=" << stream << " cut=" << cut << " record=" << record
        << " fast_forward=" << (fast_forward ? "on" : "off")
        << " min_level=" << min_level << " pecking_order=" << pecking_order
        << " min_class_above=" << min_class_above << " seed=" << seed;
    return out.str();
  }

  [[nodiscard]] std::string reproduce() const {
    std::ostringstream out;
    out << "REPRODUCE: master_seed=0x" << std::hex << kMasterSeed << std::dec
        << " case=" << index << " " << spec();
    return out.str();
  }
};

std::vector<Case> draw_cases() {
  util::Rng rng(kMasterSeed);
  std::vector<std::string> names = core::protocol_names();
  names.emplace_back(kSleepLiar);
  std::vector<Case> cases;
  for (int i = 0; i < kCases; ++i) {
    Case c;
    c.index = i;
    c.protocol = names[rng.below(names.size())];
    const int channel_options[] = {1, 1, 2, 4};
    c.channels = channel_options[rng.below(4)];
    if (c.channels > 1) {
      c.feedback = static_cast<int>(rng.below(kMultichannelFeedbacks));
      c.migrate = rng.bernoulli(0.5);
    } else {
      c.feedback = static_cast<int>(rng.below(std::size(kFeedbackSpecs)));
      c.jammer = static_cast<int>(rng.below(std::size(kJammers)));
      c.legacy_no_cd = c.feedback == 0 && rng.bernoulli(0.25);
    }
    c.faults = rng.bernoulli(0.3);
    c.cost = static_cast<int>(rng.range(1, 3));
    c.stream = rng.bernoulli(0.5);
    c.cut = rng.bernoulli(0.3);
    c.fast_forward = rng.bernoulli(0.5);
    c.record = !c.fast_forward && rng.bernoulli(0.5);
    c.min_level = static_cast<int>(rng.range(4, 6));
    c.seed = rng.next_u64() | 1ULL;
    cases.push_back(c);
  }
  return cases;
}

/// Up to 40 jobs with power-of-two windows aligned to their size (so every
/// registered protocol accepts them), released over 8 windows of the
/// smallest class.
workload::Instance make_instance(const Case& c) {
  util::Rng rng(c.seed ^ 0x494E5354ULL);  // "INST"
  workload::Instance instance;
  const Slot span = Slot{8} << c.min_level;
  const auto count = rng.range(1, 40);
  for (std::int64_t j = 0; j < count; ++j) {
    const Slot window = Slot{1} << (c.min_level + rng.range(0, 2));
    const Slot release =
        window * static_cast<Slot>(rng.below(static_cast<std::uint64_t>(
                     span / window)));
    instance.jobs.push_back({release, release + window});
  }
  instance.normalize();
  return instance;
}

sim::SimConfig make_config(const Case& c,
                           const workload::Instance& instance) {
  sim::SimConfig config;
  config.seed = c.seed;
  config.feedback =
      c.legacy_no_cd ? sim::FeedbackModel::unaware_no_cd()
                     : *sim::parse_feedback_model(kFeedbackSpecs[c.feedback]);
  config.collision_cost = c.cost;
  config.multichannel.channels = c.channels;
  config.multichannel.migrate = c.migrate;
  config.multichannel.migrate_after = 2;
  config.fast_forward =
      c.fast_forward ? sim::FastForward::kOn : sim::FastForward::kOff;
  // Small enough that streaming runs compact mid-run.
  config.stream_compact = 4;
  if (c.faults) {
    config.faults.feedback_corrupt_rate = 0.05;
    config.faults.feedback_loss_rate = 0.05;
    config.faults.clock_skew_rate = 0.01;
    config.faults.crash_rate = 0.01;
    config.faults.crash_permanent_frac = 0.5;
    config.faults.stall_min = 2;
    config.faults.stall_max = 8;
  }
  const Slot max_deadline = instance.max_deadline();
  if (c.cut) {
    util::Rng rng(c.seed ^ 0x435554ULL);  // "CUT"
    config.horizon = rng.range(1, max_deadline);
  } else if (c.stream) {
    config.horizon = max_deadline;  // streaming needs an explicit horizon
  }
  return config;
}

std::unique_ptr<sim::Jammer> make_jammer(const Case& c) {
  switch (c.jammer) {
    case 1:
      return sim::make_blanket_jammer(0.3);
    case 2:
      return sim::make_reactive_jammer(0.5);
    case 3:
      return sim::make_adaptive_jammer(6, 32, 0.75);
    default:
      return nullptr;
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_stats(const util::RunningStats& ref,
                       const util::RunningStats& eng, bool exact,
                       const std::string& what, const Case& c) {
  EXPECT_EQ(ref.count(), eng.count()) << what << "\n" << c.reproduce();
  EXPECT_EQ(bits(ref.min()), bits(eng.min())) << what << "\n"
                                              << c.reproduce();
  EXPECT_EQ(bits(ref.max()), bits(eng.max())) << what << "\n"
                                              << c.reproduce();
  if (exact) {
    EXPECT_EQ(bits(ref.mean()), bits(eng.mean())) << what << "\n"
                                                  << c.reproduce();
    EXPECT_EQ(bits(ref.variance()), bits(eng.variance()))
        << what << "\n" << c.reproduce();
  }
}

void expect_same(const test::RecordedRun& ref_run,
                 const test::RecordedRun& eng_run, const Case& c) {
  const sim::SimResult& ref = ref_run.result;
  const sim::SimResult& eng = eng_run.result;
  const bool exact = !c.fast_forward;
  ASSERT_EQ(ref.jobs.size(), eng.jobs.size()) << c.reproduce();
  for (std::size_t j = 0; j < ref.jobs.size(); ++j) {
    const sim::JobResult& a = ref.jobs[j];
    const sim::JobResult& b = eng.jobs[j];
    const auto fields = [](const sim::JobResult& r) {
      return std::vector<std::int64_t>{
          r.id,           r.release,       r.deadline,   r.success ? 1 : 0,
          r.success_slot, r.transmissions, r.live_slots, r.dark_slots,
          r.listen_slots};
    };
    EXPECT_EQ(fields(a), fields(b))
        << "job " << j << " (id, release, deadline, success, success_slot, "
        << "transmissions, live_slots, dark_slots, listen_slots)\n"
        << c.reproduce();
  }

  using M = sim::SimMetrics;
  const std::pair<const char*, std::int64_t M::*> counters[] = {
      {"slots_simulated", &M::slots_simulated},
      {"slots_skipped", &M::slots_skipped},
      {"live_peak", &M::live_peak},
      {"silent_slots", &M::silent_slots},
      {"success_slots", &M::success_slots},
      {"noise_slots", &M::noise_slots},
      {"jammed_slots", &M::jammed_slots},
      {"data_successes", &M::data_successes},
      {"control_successes", &M::control_successes},
      {"start_successes", &M::start_successes},
      {"claim_successes", &M::claim_successes},
      {"timekeeper_successes", &M::timekeeper_successes},
      {"faults_injected", &M::faults_injected},
      {"feedback_corruptions", &M::feedback_corruptions},
      {"feedback_losses", &M::feedback_losses},
      {"clock_skew_events", &M::clock_skew_events},
      {"crashes", &M::crashes},
      {"restarts", &M::restarts},
      {"dark_job_slots", &M::dark_job_slots},
      {"live_job_slots", &M::live_job_slots},
      {"feedback_flips", &M::feedback_flips},
      {"slots_awake", &M::slots_awake},
      {"slots_listening", &M::slots_listening},
      {"slots_transmitting", &M::slots_transmitting},
      {"capture_wins", &M::capture_wins},
      {"collision_cost_slots", &M::collision_cost_slots},
  };
  for (const auto& [name, field] : counters) {
    EXPECT_EQ(ref.metrics.*field, eng.metrics.*field)
        << "SimMetrics::" << name << "\n" << c.reproduce();
  }
  EXPECT_EQ(ref.metrics.fast_forward_slots, 0) << c.reproduce();
  if (exact) {
    EXPECT_EQ(eng.metrics.fast_forward_slots, 0) << c.reproduce();
  } else {
    EXPECT_GE(eng.metrics.fast_forward_slots, 0) << c.reproduce();
    EXPECT_LE(eng.metrics.fast_forward_slots, eng.metrics.slots_simulated)
        << c.reproduce();
  }
  expect_same_stats(ref.metrics.contention, eng.metrics.contention, exact,
                    "SimMetrics::contention", c);

  EXPECT_EQ(ref.stream.jobs, eng.stream.jobs) << c.reproduce();
  EXPECT_EQ(ref.stream.delivered, eng.stream.delivered) << c.reproduce();
  expect_same_stats(ref.stream.latency, eng.stream.latency, true,
                    "StreamSummary::latency", c);
  expect_same_stats(ref.stream.accesses, eng.stream.accesses, true,
                    "StreamSummary::accesses", c);
  expect_same_stats(ref.stream.awake, eng.stream.awake, true,
                    "StreamSummary::awake", c);

  if (!c.record) {
    return;
  }
  ASSERT_EQ(ref_run.slots.size(), eng_run.slots.size()) << c.reproduce();
  for (std::size_t s = 0; s < ref_run.slots.size(); ++s) {
    const sim::SlotRecord& a = ref_run.slots[s];
    const sim::SlotRecord& b = eng_run.slots[s];
    const auto fields = [](const sim::SlotRecord& r) {
      return std::vector<std::int64_t>{
          r.slot,
          static_cast<std::int64_t>(r.outcome),
          static_cast<std::int64_t>(r.success_kind),
          static_cast<std::int64_t>(bits(r.contention)),
          r.transmitters,
          r.live_jobs,
          r.jammed ? 1 : 0,
          r.faults};
    };
    EXPECT_EQ(fields(a), fields(b))
        << "slot record " << s << " (slot, outcome, success_kind, "
        << "contention bits, transmitters, live_jobs, jammed, faults)\n"
        << c.reproduce();
  }
  EXPECT_EQ(ref_run.fault_rows(), eng_run.fault_rows())
      << "fault events (slot, kind, job)\n" << c.reproduce();
}

/// A recorded case collects the engine's records as any caller does; the
/// others run it unobserved, so fast-forward may skip.
test::RecordedRun run_engine(const Case& c,
                             const workload::Instance& instance,
                             const sim::ProtocolFactory& factory) {
  const sim::SimConfig config = make_config(c, instance);
  if (c.record) {
    if (c.stream) {
      return test::run_recorded(
          std::make_unique<sim::VectorArrivals>(instance.jobs), factory,
          config, make_jammer(c));
    }
    return test::run_recorded(instance, factory, config, make_jammer(c));
  }
  test::RecordedRun out;
  if (c.stream) {
    out.result = sim::run_stream(
        std::make_unique<sim::VectorArrivals>(instance.jobs), factory, config,
        make_jammer(c));
  } else {
    out.result = sim::run(instance, factory, config, make_jammer(c));
  }
  return out;
}

test::RecordedRun run_reference(const Case& c,
                                const workload::Instance& instance,
                                const sim::ProtocolFactory& factory) {
  obs::Tracer tracer;
  const auto faults =
      std::make_shared<obs::CollectSink>(obs::EventKind::kFault);
  tracer.add_sink(faults);
  sim::SimConfig config = make_config(c, instance);
  config.tracer = &tracer;
  ReferenceSim reference(instance, factory, config, make_jammer(c), c.stream);
  test::RecordedRun out;
  std::tie(out.result, out.slots) = reference.run();
  tracer.close();
  out.faults = faults->events();
  return out;
}

core::Params params_for(const Case& c) {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = c.min_level + c.min_class_above;
  params.pecking_order = c.pecking_order;
  return params;
}

TEST(ReferenceSim, EngineMatchesNaiveReference) {
  for (const Case& c : draw_cases()) {
    const sim::ProtocolFactory factory =
        make_factory(c.protocol, params_for(c));
    const workload::Instance instance = make_instance(c);
    const test::RecordedRun eng = run_engine(c, instance, factory);
    const test::RecordedRun ref = run_reference(c, instance, factory);
    expect_same(ref, eng, c);
    if (HasFailure()) {
      break;  // one reproducible case is enough
    }
  }
}

// ALIGNED's jobs step one pecking-order replica per run in the engine
// wherever the run has a common view (SimConfig::common_view), and one
// each in the reference, which hands protocols no RunState. Lemma 7 says
// the two agree; every JobResult and metric must then be equal.
std::vector<Case> aligned_cases() {
  std::vector<Case> cases;
  util::Rng rng(kMasterSeed ^ 0x414C49474E4544ULL);  // "ALIGNED"
  const int feedbacks[] = {0, 3, 5};  // ternary, noisy:0.1, capture:0
  for (int s = 0; s < 3; ++s) {
    const std::uint64_t seed = rng.next_u64() | 1ULL;
    for (int jammer = 0; jammer < static_cast<int>(std::size(kJammers));
         ++jammer) {
      for (const int feedback : feedbacks) {
        for (const int cost : {1, 3}) {
          for (const bool pecking : {true, false}) {
            Case c;
            c.index = static_cast<int>(cases.size());
            c.protocol = "aligned";
            c.feedback = feedback;
            c.jammer = jammer;
            c.cost = cost;
            c.pecking_order = pecking;
            // Windows of 2^7..2^9 slots: long enough for estimation to
            // end and broadcasts to run.
            c.min_level = 7;
            c.seed = seed;
            cases.push_back(c);
          }
        }
      }
    }
  }
  // Windows below Params::min_class (each tracks its own class alone),
  // streaming runs, and a horizon cut.
  for (int s = 0; s < 3; ++s) {
    Case c = cases[static_cast<std::size_t>(s) * 48];
    c.index = static_cast<int>(cases.size());
    c.min_class_above = 2;
    cases.push_back(c);
    c.index = static_cast<int>(cases.size());
    c.min_class_above = 0;
    c.stream = true;
    c.jammer = 2;  // reactive
    cases.push_back(c);
    c.index = static_cast<int>(cases.size());
    c.cut = true;
    cases.push_back(c);
  }
  return cases;
}

TEST(ReferenceSim, AlignedSharedReplicaMatchesPrivateReplicas) {
  std::int64_t larger_after_smaller = 0;
  std::int64_t delivered = 0;
  for (const Case& c : aligned_cases()) {
    const sim::ProtocolFactory factory =
        make_factory(c.protocol, params_for(c));
    const workload::Instance instance = make_instance(c);
    ASSERT_TRUE(make_config(c, instance).common_view()) << c.reproduce();
    // A larger class activating in the slot after smaller ones (ids follow
    // the normalized order) widens the replica they are bound to.
    for (std::size_t j = 1; j < instance.size(); ++j) {
      const workload::JobSpec& a = instance.jobs[j - 1];
      const workload::JobSpec& b = instance.jobs[j];
      larger_after_smaller +=
          a.release == b.release && b.window() > a.window() ? 1 : 0;
    }
    const test::RecordedRun eng = run_engine(c, instance, factory);
    expect_same(run_reference(c, instance, factory), eng, c);
    if (HasFailure()) {
      break;  // one reproducible case is enough
    }
    delivered += eng.result.metrics.data_successes;
  }
  EXPECT_GT(larger_after_smaller, 0);
  EXPECT_GT(delivered, 0);
}

TEST(ReferenceSim, AlignedSharedReplicaGrowsWhileSmallerClassesAreLive) {
  // Hand-built nesting: in each of these slots smaller classes activate
  // first and a larger one then widens the replica they already step; at
  // 512 and 768 a small class activates below a replica grown earlier.
  workload::Instance instance;
  const auto add = [&](int count, Slot window, Slot release) {
    for (int j = 0; j < count; ++j) {
      instance.jobs.push_back({release, release + window});
    }
  };
  add(3, 128, 0);
  add(2, 512, 0);
  add(2, 128, 512);
  add(2, 256, 768);
  add(2, 128, 1024);
  add(1, 256, 1024);
  add(1, 1024, 1024);
  instance.normalize();
  for (const bool pecking : {true, false}) {
    for (const int jammer : {0, 2}) {
      Case c;
      c.protocol = "aligned";
      c.jammer = jammer;
      c.pecking_order = pecking;
      c.min_level = 7;
      c.seed = 0x4E455354ULL + static_cast<std::uint64_t>(jammer);  // "NEST"
      const sim::ProtocolFactory factory =
          make_factory(c.protocol, params_for(c));
      expect_same(run_reference(c, instance, factory),
                  run_engine(c, instance, factory), c);
    }
  }
}

TEST(ReferenceSim, CaseSpaceIsCovered) {
  // The draw must actually reach every axis of the case space, or the
  // differential test above silently loses its teeth.
  int multichannel = 0;
  int migrating = 0;
  int streamed = 0;
  int cut = 0;
  int recorded = 0;
  int fast_forward = 0;
  int faulted = 0;
  int legacy = 0;
  std::vector<int> feedbacks(std::size(kFeedbackSpecs), 0);
  std::vector<int> jammers(std::size(kJammers), 0);
  std::vector<int> costs(4, 0);
  for (const Case& c : draw_cases()) {
    multichannel += c.channels > 1 ? 1 : 0;
    migrating += c.migrate ? 1 : 0;
    streamed += c.stream ? 1 : 0;
    cut += c.cut ? 1 : 0;
    recorded += c.record ? 1 : 0;
    fast_forward += c.fast_forward ? 1 : 0;
    faulted += c.faults ? 1 : 0;
    legacy += c.legacy_no_cd ? 1 : 0;
    ++feedbacks[static_cast<std::size_t>(c.feedback)];
    ++jammers[static_cast<std::size_t>(c.jammer)];
    ++costs[static_cast<std::size_t>(c.cost)];
  }
  for (const int n : {multichannel, migrating, streamed, cut, recorded,
                      fast_forward, faulted, legacy}) {
    EXPECT_GT(n, 0);
  }
  for (const int n : feedbacks) {
    EXPECT_GT(n, 0);
  }
  for (const int n : jammers) {
    EXPECT_GT(n, 0);
  }
  for (int cost = 1; cost <= 3; ++cost) {
    EXPECT_GT(costs[static_cast<std::size_t>(cost)], 0);
  }
}

}  // namespace
}  // namespace crmd::tests
