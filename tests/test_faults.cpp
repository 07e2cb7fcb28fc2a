// Tests for the fault-injection subsystem (faults.hpp): deterministic
// replay, the all-zero no-op property, budgeted adversaries, input
// validation, and PUNCTUAL's desync fallback.

#include <gtest/gtest.h>

#ifdef __linux__
#include <sys/resource.h>
#endif

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/punctual/protocol.hpp"
#include "core/registry.hpp"
#include "report_digest.hpp"
#include "sim/arrivals.hpp"
#include "sim/faults.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace crmd::sim {
namespace {

bool same_record(const SlotRecord& a, const SlotRecord& b) {
  return a.slot == b.slot && a.outcome == b.outcome &&
         a.success_kind == b.success_kind && a.contention == b.contention &&
         a.transmitters == b.transmitters && a.live_jobs == b.live_jobs &&
         a.jammed == b.jammed && a.faults == b.faults;
}

bool same_trace(const test::RecordedRun& a, const test::RecordedRun& b) {
  if (a.slots.size() != b.slots.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    if (!same_record(a.slots[i], b.slots[i])) {
      return false;
    }
  }
  if (a.result.jobs.size() != b.result.jobs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.result.jobs.size(); ++i) {
    const JobResult& x = a.result.jobs[i];
    const JobResult& y = b.result.jobs[i];
    if (x.success != y.success || x.success_slot != y.success_slot ||
        x.transmissions != y.transmissions || x.live_slots != y.live_slots ||
        x.dark_slots != y.dark_slots) {
      return false;
    }
  }
  return true;
}

ProtocolFactory registry_factory(const char* name) {
  auto factory = core::make_protocol(name, core::Params{});
  EXPECT_TRUE(factory.has_value()) << name;
  return *factory;
}

ProtocolFactory beb_factory() { return registry_factory("beb"); }

FaultPlan full_plan() {
  FaultPlan plan;
  plan.feedback_corrupt_rate = 0.05;
  plan.feedback_loss_rate = 0.05;
  plan.clock_skew_rate = 0.02;
  plan.crash_rate = 0.002;
  plan.crash_permanent_frac = 0.25;
  plan.stall_min = 4;
  plan.stall_max = 16;
  return plan;
}

test::RecordedRun run_with(const FaultPlan& plan, std::uint64_t seed) {
  SimConfig config;
  config.seed = seed;
  config.faults = plan;
  return test::run_recorded(workload::gen_batch(8, 1024, 0), beb_factory(),
                            config);
}

// --- determinism ----------------------------------------------------------

TEST(Faults, SameSeedAndPlanReplayBitIdentically) {
  const auto a = run_with(full_plan(), 7);
  const auto b = run_with(full_plan(), 7);
  EXPECT_TRUE(same_trace(a, b));
  EXPECT_EQ(a.fault_rows(), b.fault_rows());
  EXPECT_EQ(a.result.metrics.faults_injected, b.result.metrics.faults_injected);
  EXPECT_GT(a.result.metrics.faults_injected, 0)
      << "the plan should fire at all";
}

TEST(Faults, DifferentSeedsDiverge) {
  const auto a = run_with(full_plan(), 7);
  const auto b = run_with(full_plan(), 8);
  EXPECT_FALSE(same_trace(a, b));
}

// --- the no-op property ---------------------------------------------------

TEST(Faults, AllZeroPlanIsBitIdenticalToFaultFree) {
  SimConfig clean;
  clean.seed = 11;
  const auto baseline =
      test::run_recorded(workload::gen_batch(8, 1024, 0), beb_factory(), clean);

  // Explicit all-zero plan (including nonzero knobs that are gated on the
  // rates, like crash_permanent_frac): still a no-op.
  FaultPlan zero;
  zero.crash_permanent_frac = 1.0;
  zero.stall_min = 2;
  zero.stall_max = 3;
  EXPECT_FALSE(zero.any());
  const auto zeroed = run_with(zero, 11);

  EXPECT_TRUE(same_trace(baseline, zeroed));
  EXPECT_EQ(zeroed.result.metrics.faults_injected, 0);
  EXPECT_EQ(zeroed.result.metrics.dark_job_slots, 0);
  EXPECT_TRUE(zeroed.faults.empty());
}

TEST(Faults, ZeroBudgetJammerIsBitIdenticalToNoJammer) {
  SimConfig config;
  config.seed = 13;
  const auto instance = workload::gen_batch(8, 1024, 0);
  const auto clean = test::run_recorded(instance, beb_factory(), config);
  const auto budgeted = test::run_recorded(instance, beb_factory(), config,
                                           make_adaptive_jammer(0, 128, 0.9));
  EXPECT_TRUE(same_trace(clean, budgeted));
  EXPECT_EQ(budgeted.result.metrics.jammed_slots, 0);
}

// --- fault semantics ------------------------------------------------------

TEST(Faults, PerceiveDegradesNeverFabricates) {
  FaultPlan plan;
  plan.feedback_corrupt_rate = 1.0;
  FaultInjector inj(plan, 1);
  FaultInjector::JobFaults job = inj.job(0);

  SlotFeedback success;
  success.outcome = SlotOutcome::kSuccess;
  success.message = make_data(3);
  EXPECT_EQ(inj.perceive(job, 0, 0, success).outcome, SlotOutcome::kNoise);
  EXPECT_FALSE(inj.perceive(job, 0, 1, success).message.has_value());

  SlotFeedback noise;
  noise.outcome = SlotOutcome::kNoise;
  EXPECT_EQ(inj.perceive(job, 0, 2, noise).outcome, SlotOutcome::kSilence);

  SlotFeedback silence;
  EXPECT_EQ(inj.perceive(job, 0, 3, silence).outcome, SlotOutcome::kNoise);
  EXPECT_EQ(inj.count(FaultKind::kFeedbackCorrupt), 4);
}

TEST(Faults, LossAlwaysHearsSilence) {
  FaultPlan plan;
  plan.feedback_loss_rate = 1.0;
  FaultInjector inj(plan, 1);
  FaultInjector::JobFaults job = inj.job(5);
  SlotFeedback success;
  success.outcome = SlotOutcome::kSuccess;
  success.message = make_data(3);
  const SlotFeedback& heard = inj.perceive(job, 5, 0, success);
  EXPECT_EQ(heard.outcome, SlotOutcome::kSilence);
  EXPECT_FALSE(heard.message.has_value());
  EXPECT_EQ(inj.count(FaultKind::kFeedbackLoss), 1);
}

TEST(Faults, PermanentCrashRetiresForever) {
  FaultPlan plan;
  plan.crash_rate = 1.0;
  plan.crash_permanent_frac = 1.0;
  FaultInjector inj(plan, 1);
  FaultInjector::JobFaults job = inj.job(0);
  EXPECT_EQ(inj.tick(job, 0, 0), FaultInjector::JobHealth::kDead);
  EXPECT_EQ(inj.tick(job, 0, 1), FaultInjector::JobHealth::kDead);
  EXPECT_EQ(inj.count(FaultKind::kCrash), 1) << "dead jobs stop drawing";
}

TEST(Faults, StallGoesDarkThenRestarts) {
  FaultPlan plan;
  plan.crash_rate = 1.0;  // crashes immediately...
  plan.crash_permanent_frac = 0.0;
  plan.stall_min = 3;
  plan.stall_max = 3;  // ...for exactly 3 slots
  FaultInjector inj(plan, 1);
  FaultInjector::JobFaults job = inj.job(0);
  EXPECT_EQ(inj.tick(job, 0, 0), FaultInjector::JobHealth::kDark);
  EXPECT_EQ(job.dark_until, 3) << "dark until the stall's end";
  EXPECT_EQ(inj.tick(job, 0, 1), FaultInjector::JobHealth::kDark);
  EXPECT_EQ(inj.tick(job, 0, 2), FaultInjector::JobHealth::kDark);
  // Slot 3: the stall ends; with crash_rate=1 it immediately re-crashes,
  // but the restart must have been recorded.
  (void)inj.tick(job, 0, 3);
  EXPECT_EQ(inj.count(FaultKind::kRestart), 1);
  EXPECT_EQ(inj.count(FaultKind::kCrash), 2);
}

TEST(Faults, SkewAccumulatesForwardOnly) {
  FaultPlan plan;
  plan.clock_skew_rate = 1.0;
  FaultInjector inj(plan, 1);
  FaultInjector::JobFaults job = inj.job(0);
  EXPECT_EQ(job.skew, 0);
  EXPECT_EQ(inj.tick(job, 0, 0), FaultInjector::JobHealth::kHealthy);
  EXPECT_EQ(job.skew, 1);
  (void)inj.tick(job, 0, 1);
  EXPECT_EQ(job.skew, 2);
  EXPECT_EQ(job.dark_until, kNoSlot) << "a healthy job is not dark";
  EXPECT_EQ(inj.job(1).skew, 0) << "per-job state is independent";
}

TEST(Faults, CrashedJobsGoDarkInTheSimulator) {
  FaultPlan plan;
  plan.crash_rate = 0.05;
  plan.crash_permanent_frac = 0.0;
  plan.stall_min = 4;
  plan.stall_max = 8;
  const SimResult result = run_with(plan, 3).result;
  EXPECT_GT(result.metrics.crashes, 0);
  EXPECT_GT(result.metrics.dark_job_slots, 0);
  std::int64_t job_dark = 0;
  for (const auto& job : result.jobs) {
    job_dark += job.dark_slots;
    EXPECT_LE(job.dark_slots, job.live_slots);
  }
  EXPECT_EQ(job_dark, result.metrics.dark_job_slots)
      << "per-job and channel dark accounting must agree";
}

// --- pinned faulted runs ---------------------------------------------------
// No kGolden* family covers a faulted run, and the reference simulator
// shares the fault layer with the engine, so these pins hold the fault
// layer's observable behaviour fixed on their own: every fault event (the
// tracer's kFault stream), every JobResult, and the fault and dark counters
// of SimMetrics.

std::uint64_t fault_pin(const test::RecordedRun& run) {
  std::uint64_t h = 0x46415554ULL;  // "FAUT"
  const auto add = [&h](std::int64_t v) {
    h = tests::mix(h, static_cast<std::uint64_t>(v));
  };
  for (const auto& [slot, kind, job] : run.fault_rows()) {
    add(slot);
    add(kind);
    add(job);
  }
  const SimResult& r = run.result;
  for (const JobResult& j : r.jobs) {
    add(static_cast<std::int64_t>(j.id));
    add(j.release);
    add(j.deadline);
    add(j.success ? 1 : 0);
    add(j.success_slot);
    add(j.transmissions);
    add(j.live_slots);
    add(j.dark_slots);
    add(j.listen_slots);
  }
  const SimMetrics& m = r.metrics;
  for (const std::int64_t v :
       {m.faults_injected, m.feedback_corruptions, m.feedback_losses,
        m.clock_skew_events, m.crashes, m.restarts, m.dark_job_slots}) {
    add(v);
  }
  return h;
}

TEST(Faults, PinnedFaultedRunsAreUnchanged) {
  // k = 1 batch with every fault source on; half the crashes are permanent.
  // NOCD_ROBUST acts on what it hears, so lost or corrupted feedback shows.
  SimConfig single;
  single.seed = 17;
  single.faults = full_plan();
  single.faults.crash_permanent_frac = 0.5;
  const auto a = test::run_recorded(workload::gen_batch(24, 2048, 0),
                                    registry_factory("nocd_robust"), single);
  const SimMetrics& am = a.result.metrics;
  EXPECT_GT(am.feedback_corruptions, 0);
  EXPECT_GT(am.feedback_losses, 0);
  EXPECT_GT(am.clock_skew_events, 0);
  EXPECT_GT(am.restarts, 0);
  EXPECT_GT(am.crashes, am.restarts) << "permanent crashes should occur";

  // Four migrating channels under binary_ack (the fdma_faults shape).
  SimConfig fdma;
  fdma.seed = 23;
  fdma.feedback = FeedbackModel::binary_ack();
  fdma.faults.feedback_loss_rate = 0.01;
  fdma.faults.feedback_corrupt_rate = 0.01;
  fdma.faults.clock_skew_rate = 0.005;
  fdma.faults.crash_rate = 0.001;
  fdma.faults.crash_permanent_frac = 0.25;
  fdma.faults.stall_min = 4;
  fdma.faults.stall_max = 16;
  fdma.multichannel.channels = 4;
  fdma.multichannel.migrate = true;
  const auto b = test::run_recorded(workload::gen_batch(256, 1024, 0),
                                    registry_factory("nocd_robust"), fdma);
  EXPECT_GT(b.result.metrics.crashes, 0);

  // A streaming run that compacts its arrays every other dead job.
  // ENERGY_BEB reads its (skewed) slot view in on_feedback too.
  SimConfig stream = single;
  stream.seed = 29;
  stream.horizon = 8192;
  stream.stream_compact = 2;
  const auto c =
      test::run_recorded(std::make_unique<PoissonArrivals>(0.05, 128),
                         registry_factory("energy_beb"), stream);
  EXPECT_GT(c.result.metrics.crashes, 0);
  EXPECT_GT(c.result.jobs.size(), 300U);

  EXPECT_EQ(fault_pin(a), 0x208abefba79c8149ULL);
  EXPECT_EQ(fault_pin(b), 0x97b4a94fa2ce8b6dULL);
  EXPECT_EQ(fault_pin(c), 0xa93e7ab9955b4748ULL);
}

// The paper's own protocols under every fault source, k = 1. The kGolden*
// digests are fault-free, and clock skew and stalls are the only inputs
// that make a job's slot view jump: PUNCTUAL's slots-since-release and
// ALIGNED's tracker index then cross several round or window boundaries
// at once, which fault-free runs never do.
TEST(Faults, PinnedFaultedPaperProtocolRuns) {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  SimConfig config;
  config.faults = full_plan();

  util::Rng aligned_rng(31);
  workload::AlignedConfig aligned_config;
  aligned_config.min_class = 8;
  aligned_config.max_class = 10;
  aligned_config.horizon = 1 << 12;
  config.seed = 37;
  const auto a =
      test::run_recorded(workload::gen_aligned(aligned_config, aligned_rng),
                         *core::make_protocol("aligned", params), config);

  util::Rng general_rng(41);
  workload::GeneralConfig general_config;
  general_config.min_window = 1 << 8;
  general_config.max_window = 1 << 10;
  general_config.horizon = 1 << 12;
  config.seed = 43;
  const auto p =
      test::run_recorded(workload::gen_general(general_config, general_rng),
                         *core::make_protocol("punctual", params), config);

  for (const test::RecordedRun* r : {&a, &p}) {
    EXPECT_GT(r->result.metrics.clock_skew_events, 0);
    EXPECT_GT(r->result.metrics.restarts, 0);
  }
  EXPECT_EQ(fault_pin(a), 0x890cbf03acaa82aaULL);
  EXPECT_EQ(fault_pin(p), 0x68df4ce6b4a1233bULL);
}

// A faulted streaming run keeps its memory bounded by the live set (DESIGN.md
// §6j): each job's fault state lives and is compacted with its other
// per-job arrays. Measured as the growth of the process's peak RSS from a
// short warm-up run to a 2^21-slot one (about 526k jobs, whose fault state
// alone would take some 32 MiB if it were all kept). ctest runs every test
// in a process of its own; run together with heavier tests the peak may
// already be higher, which can only make the check pass. Sanitizer
// runtimes hold freed memory in quarantine, so their RSS says nothing
// about the engine's.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CRMD_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CRMD_TEST_SANITIZED 1
#endif

#ifdef __linux__
std::int64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

TEST(Faults, StreamingMemoryStaysBoundedByTheLiveSet) {
#ifdef CRMD_TEST_SANITIZED
  GTEST_SKIP() << "peak RSS is not meaningful under a sanitizer runtime";
#endif
  const auto stream_run = [](Slot horizon) {
    SimConfig config;
    config.seed = 5;
    config.horizon = horizon;
    config.keep_job_results = false;
    config.faults.feedback_loss_rate = 0.01;
    return run_stream(std::make_unique<PoissonArrivals>(0.25, 16),
                      registry_factory("uniform"), config);
  };
  const auto warm = stream_run(Slot{1} << 12);
  const std::int64_t before = peak_rss_kib();
  const auto full = stream_run(Slot{1} << 21);
  const std::int64_t grown = peak_rss_kib() - before;
  EXPECT_GT(warm.stream.jobs, 0);
  EXPECT_GT(full.stream.jobs, 500000);
  EXPECT_GT(full.metrics.feedback_losses, 0);
  EXPECT_LE(grown, 8 * 1024) << "peak RSS grew by " << grown << " KiB";
}
#endif

TEST(Faults, EventsAreRecordedInSlotOrder) {
  const auto run = run_with(full_plan(), 21);
  ASSERT_FALSE(run.faults.empty());
  std::int64_t by_kind = 0;
  for (std::size_t i = 1; i < run.faults.size(); ++i) {
    EXPECT_LE(run.faults[i - 1].slot, run.faults[i].slot);
  }
  for (const obs::TraceEvent& ev : run.faults) {
    by_kind += 1;
    EXPECT_NE(to_string(static_cast<FaultKind>(ev.a)), std::string("unknown"));
  }
  EXPECT_EQ(by_kind, run.result.metrics.faults_injected);
}

// --- budgeted adversaries -------------------------------------------------

TEST(BudgetedJammer, NeverExceedsBudgetPerWindow) {
  auto jammer = make_budgeted_jammer(make_blanket_jammer(1.0), /*budget=*/2,
                                     /*window_length=*/10);
  auto* budgeted = dynamic_cast<BudgetedJammer*>(jammer.get());
  ASSERT_NE(budgeted, nullptr);
  int granted = 0;
  for (Slot t = 0; t < 30; ++t) {
    granted += budgeted->wants_jam(t, SlotOutcome::kSilence, nullptr) ? 1 : 0;
  }
  EXPECT_EQ(granted, 6) << "2 attempts in each of 3 windows";
  EXPECT_EQ(budgeted->attempts_total(), 6);
  EXPECT_EQ(budgeted->max_window_attempts(), 2);
  EXPECT_LE(budgeted->max_window_attempts(), budgeted->budget());
}

TEST(BudgetedJammer, BudgetEnforcedAcrossFullSimulation) {
  SimConfig config;
  config.seed = 5;
  auto jammer = make_budgeted_jammer(make_reactive_jammer(1.0), 3, 64);
  // The jammer outlives finish() inside the Simulation object, so the raw
  // pointer stays valid for the post-run assertions.
  auto* budgeted = dynamic_cast<BudgetedJammer*>(jammer.get());
  ASSERT_NE(budgeted, nullptr);
  Simulation sim(workload::gen_batch(12, 1024, 0), beb_factory(), config,
                 std::move(jammer));
  const auto result = sim.finish();
  EXPECT_GT(budgeted->attempts_total(), 0);
  EXPECT_LE(budgeted->max_window_attempts(), 3);
  EXPECT_GT(result.metrics.jammed_slots, 0);
}

TEST(BudgetedJammer, AdaptivePolicySpendsOnData) {
  auto jammer = make_adaptive_jammer(/*budget=*/4, /*window_length=*/100,
                                     /*p_jam=*/1.0);
  auto* budgeted = dynamic_cast<BudgetedJammer*>(jammer.get());
  ASSERT_NE(budgeted, nullptr);
  const Message data = make_data(1);
  // Data is always worth an attempt while budget remains.
  EXPECT_TRUE(budgeted->wants_jam(0, SlotOutcome::kSuccess, &data));
  // Collisions and silence never are.
  EXPECT_FALSE(budgeted->wants_jam(1, SlotOutcome::kNoise, nullptr));
  EXPECT_FALSE(budgeted->wants_jam(2, SlotOutcome::kSilence, nullptr));
  EXPECT_EQ(budgeted->attempts_total(), 1);
}

// --- validation -----------------------------------------------------------

TEST(Validation, FaultPlanRejectsOutOfRangeRates) {
  FaultPlan plan;
  plan.feedback_corrupt_rate = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = FaultPlan{};
  plan.crash_rate = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = FaultPlan{};
  plan.stall_min = 8;
  plan.stall_max = 4;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  EXPECT_NO_THROW(FaultPlan{}.validate());
}

TEST(Validation, SimulationRejectsBadFaultPlan) {
  SimConfig config;
  config.faults.feedback_loss_rate = 2.0;
  EXPECT_THROW(Simulation(workload::gen_batch(2, 64, 0), beb_factory(),
                          config, nullptr),
               std::invalid_argument);
}

TEST(Validation, JammerFactoriesRejectBadProbabilities) {
  EXPECT_THROW(make_blanket_jammer(1.5), std::invalid_argument);
  EXPECT_THROW(make_reactive_jammer(-0.5), std::invalid_argument);
  EXPECT_THROW(make_control_jammer(2.0), std::invalid_argument);
  EXPECT_THROW(make_data_jammer(-1.0), std::invalid_argument);
  EXPECT_THROW(make_random_jammer(1.5, 0.5, util::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(make_random_jammer(0.5, -0.1, util::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(make_adaptive_jammer(-1, 10, 0.5), std::invalid_argument);
  EXPECT_THROW(make_adaptive_jammer(5, 0, 0.5), std::invalid_argument);
  EXPECT_THROW(make_budgeted_jammer(nullptr, 1, 1), std::invalid_argument);
  EXPECT_NO_THROW(make_adaptive_jammer(0, 1, 1.0));
}

TEST(Validation, InstanceRejectsEmptyWindowsAndNegativeReleases) {
  workload::Instance bad;
  bad.jobs.push_back(workload::JobSpec{10, 10});  // d_j == r_j
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.jobs[0] = workload::JobSpec{10, 5};  // d_j < r_j
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.jobs[0] = workload::JobSpec{-1, 5};  // negative release
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.jobs[0] = workload::JobSpec{0, 1};
  EXPECT_NO_THROW(bad.validate());

  // The simulator refuses malformed instances at construction.
  EXPECT_THROW(Simulation(test::instance_of({{4, 4}}), beb_factory(),
                          SimConfig{}, nullptr),
               std::invalid_argument);
}

// --- PUNCTUAL graceful degradation ---------------------------------------

TEST(DesyncFallback, ImpossibleObservationsTriggerDesperateFallback) {
  core::Params params;
  params.desync_tolerance = 2;
  params.validate();
  core::punctual::PunctualProtocol proto(params, util::Rng(1));
  JobInfo info;
  info.id = 0;
  info.release = 0;
  info.deadline = 1024;
  proto.on_activate(info);

  // Silence for a full round makes the job announce its own frame...
  Slot t = 0;
  while (proto.stage() == core::punctual::PunctualProtocol::Stage::kSyncListen) {
    ASSERT_LT(t, 100) << "sync-listen should end";
    (void)proto.on_slot(SlotView{t, t});
    proto.on_feedback(SlotView{t, t}, SlotFeedback{});
    ++t;
  }
  ASSERT_EQ(proto.stage(),
            core::punctual::PunctualProtocol::Stage::kSyncAnnounce);

  // ...and its two announce transmissions each come back as *silence* —
  // physically impossible, so after tolerance=2 observations the job
  // abandons the grid.
  for (int i = 0; i < 2; ++i) {
    const SlotAction a = proto.on_slot(SlotView{t, t});
    EXPECT_TRUE(a.transmit);
    proto.on_feedback(SlotView{t, t}, SlotFeedback{});  // lost feedback
    ++t;
  }
  EXPECT_TRUE(proto.desync_fallback());
  EXPECT_EQ(proto.desync_evidence(), 2);
  EXPECT_EQ(proto.stage(),
            core::punctual::PunctualProtocol::Stage::kDesperate);
  EXPECT_TRUE(proto.was_anarchist());
}

TEST(DesyncFallback, DisabledByDefaultAndNeverFiresFaultFree) {
  core::Params params;
  EXPECT_EQ(params.desync_tolerance, 0) << "off = paper-faithful default";
  params.desync_tolerance = -1;
  EXPECT_THROW(params.validate(), std::invalid_argument);

  // A fault-free PUNCTUAL run with the fallback enabled behaves exactly as
  // with it disabled: the evidence signals are physically impossible on a
  // clean channel.
  const auto instance = workload::gen_batch(8, 8192, 0);
  core::Params on;
  on.tau = 8;
  on.min_class = 13;
  on.desync_tolerance = 1;
  core::Params off = on;
  off.desync_tolerance = 0;
  SimConfig config;
  config.seed = 9;
  const auto with_fallback = test::run_recorded(
      instance, core::punctual::make_punctual_factory(on), config);
  const auto without = test::run_recorded(
      instance, core::punctual::make_punctual_factory(off), config);
  EXPECT_TRUE(same_trace(with_fallback, without));
}

}  // namespace
}  // namespace crmd::sim
