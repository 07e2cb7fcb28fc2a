// The determinism contract of the parallel replication engine: for every
// worker count, run_replications returns a ReplicationReport bit-identical
// to the serial run — outcomes, channel metrics, jobs-per-rep statistics,
// and (when tracing) the event stream the sinks observe. Exercised across
// protocols (UNIFORM / ALIGNED / PUNCTUAL and baselines), jamming
// adversaries, non-trivial fault plans, and a many-replication stress
// case. A failure here means replication-order dependence leaked into the
// engine (shared RNG stream, out-of-order fold, racy accumulator). The
// RunOrdered tests pin the contract of the worker pool underneath.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/runner.hpp"
#include "baselines/aloha.hpp"
#include "baselines/beb.hpp"
#include "core/aligned/protocol.hpp"
#include "core/punctual/protocol.hpp"
#include "core/uniform.hpp"
#include "obs/trace.hpp"
#include "sim/jammer.hpp"
#include "test_helpers.hpp"
#include "util/pool.hpp"
#include "workload/generators.hpp"

namespace crmd::analysis {
namespace {

// Worker counts the contract is asserted for (1 is the serial reference).
const std::vector<int> kThreadCounts{2, 3, 8};

void expect_stats_identical(const util::RunningStats& a,
                            const util::RunningStats& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what << ".count";
  EXPECT_EQ(a.mean(), b.mean()) << what << ".mean";
  EXPECT_EQ(a.variance(), b.variance()) << what << ".variance";
  EXPECT_EQ(a.min(), b.min()) << what << ".min";
  EXPECT_EQ(a.max(), b.max()) << what << ".max";
}

void expect_counter_identical(const util::SuccessCounter& a,
                              const util::SuccessCounter& b,
                              const char* what) {
  EXPECT_EQ(a.successes(), b.successes()) << what << ".successes";
  EXPECT_EQ(a.trials(), b.trials()) << what << ".trials";
}

void expect_metrics_identical(const sim::SimMetrics& a,
                              const sim::SimMetrics& b) {
  EXPECT_EQ(a.slots_simulated, b.slots_simulated);
  EXPECT_EQ(a.slots_skipped, b.slots_skipped);
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
  expect_stats_identical(a.contention, b.contention, "channel.contention");
}

void expect_reports_identical(const ReplicationReport& a,
                              const ReplicationReport& b) {
  EXPECT_EQ(a.replications, b.replications);
  expect_stats_identical(a.jobs_per_rep, b.jobs_per_rep, "jobs_per_rep");
  expect_metrics_identical(a.channel, b.channel);

  expect_counter_identical(a.outcomes.overall(), b.outcomes.overall(),
                           "outcomes.overall");
  EXPECT_EQ(a.outcomes.jobs(), b.outcomes.jobs());
  expect_stats_identical(a.outcomes.accesses(), b.outcomes.accesses(),
                         "outcomes.accesses");
  ASSERT_EQ(a.outcomes.by_window().size(), b.outcomes.by_window().size());
  auto ita = a.outcomes.by_window().begin();
  auto itb = b.outcomes.by_window().begin();
  for (; ita != a.outcomes.by_window().end(); ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first) << "window keys diverge";
    expect_counter_identical(ita->second.deadline_met,
                             itb->second.deadline_met, "bucket.deadline_met");
    expect_stats_identical(ita->second.latency, itb->second.latency,
                           "bucket.latency");
    expect_stats_identical(ita->second.accesses, itb->second.accesses,
                           "bucket.accesses");
  }
}

/// Asserts the contract for one configuration: every parallel worker count
/// reproduces the serial report bit for bit.
void assert_contract(const InstanceGen& gen,
                     const sim::ProtocolFactory& factory, int reps,
                     std::uint64_t seed, const JammerGen& jammer_gen = nullptr,
                     const sim::FaultPlan& faults = {}) {
  const auto run = [&](int threads) {
    return run_replications(
        gen, factory, reps, seed,
        {.jammer_gen = jammer_gen, .faults = faults, .threads = threads});
  };
  const auto serial = run(1);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto parallel = run(threads);
    expect_reports_identical(serial, parallel);
  }
}

InstanceGen general_gen(double gamma = 1.0 / 8) {
  return [gamma](util::Rng& rng) {
    workload::GeneralConfig config;
    config.min_window = 1 << 8;
    config.max_window = 1 << 10;
    config.gamma = gamma;
    config.horizon = 1 << 12;
    return workload::gen_general(config, rng);
  };
}

InstanceGen aligned_gen() {
  return [](util::Rng& rng) {
    workload::AlignedConfig config;
    config.min_class = 8;
    config.max_class = 10;
    config.gamma = 1.0 / 8;
    config.horizon = 1 << 12;
    return workload::gen_aligned(config, rng);
  };
}

TEST(RunnerParallel, ResolveThreads) {
  EXPECT_EQ(util::resolve_threads(1), 1);
  EXPECT_EQ(util::resolve_threads(7), 7);
  EXPECT_GE(util::resolve_threads(0), 1);   // hardware default
  EXPECT_GE(util::resolve_threads(-3), 1);  // negative = auto too
}

TEST(RunnerParallel, UniformBitIdentity) {
  core::Params params;
  assert_contract(general_gen(), core::make_uniform_factory(params),
                  /*reps=*/6, /*seed=*/101);
}

TEST(RunnerParallel, AlignedBitIdentity) {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  assert_contract(aligned_gen(),
                  core::aligned::make_aligned_factory(params),
                  /*reps=*/5, /*seed=*/202);
}

TEST(RunnerParallel, PunctualBitIdentity) {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  assert_contract(general_gen(),
                  core::punctual::make_punctual_factory(params),
                  /*reps=*/5, /*seed=*/303);
}

TEST(RunnerParallel, BaselinesBitIdentity) {
  assert_contract(general_gen(), baselines::make_aloha_window_factory(4.0),
                  /*reps=*/6, /*seed=*/404);
  assert_contract(general_gen(), baselines::make_beb_factory(),
                  /*reps=*/6, /*seed=*/405);
}

TEST(RunnerParallel, JammerGensBitIdentity) {
  const JammerGen reactive = [](util::Rng) {
    return sim::make_reactive_jammer(0.3);
  };
  assert_contract(general_gen(), baselines::make_aloha_window_factory(4.0),
                  /*reps=*/6, /*seed=*/506, reactive);
  const JammerGen blanket = [](util::Rng) {
    return sim::make_blanket_jammer(0.2);
  };
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  assert_contract(general_gen(),
                  core::punctual::make_punctual_factory(params),
                  /*reps=*/4, /*seed=*/507, blanket);
}

TEST(RunnerParallel, FaultPlanBitIdentity) {
  sim::FaultPlan faults;
  faults.feedback_corrupt_rate = 0.05;
  faults.feedback_loss_rate = 0.05;
  faults.clock_skew_rate = 0.01;
  faults.crash_rate = 0.002;
  faults.crash_permanent_frac = 0.5;
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  assert_contract(general_gen(),
                  core::punctual::make_punctual_factory(params),
                  /*reps=*/4, /*seed=*/608, nullptr, faults);
}

TEST(RunnerParallel, EmptyInstancesFoldInOrder) {
  // Roughly half the replications generate nothing — the fold must still
  // walk replication order (jobs_per_rep mixes zero and non-zero adds).
  const InstanceGen gen = [](util::Rng& rng) {
    if (rng.bernoulli(0.5)) {
      return workload::Instance{};
    }
    return workload::gen_batch(8, 512, 0);
  };
  assert_contract(gen, baselines::make_aloha_window_factory(4.0),
                  /*reps=*/12, /*seed=*/709);
}

TEST(RunnerParallel, ManyRepsStress) {
  // Far more replications than workers: exercises the atomic claim counter
  // and the pending-map fold under real contention.
  const InstanceGen gen = [](util::Rng&) {
    return workload::gen_batch(4, 256, 0);
  };
  const auto serial = run_replications(
      gen, baselines::make_aloha_window_factory(4.0), 200, 811,
      {.threads = 1});
  const auto parallel = run_replications(
      gen, baselines::make_aloha_window_factory(4.0), 200, 811,
      {.threads = 8});
  expect_reports_identical(serial, parallel);
}

TEST(RunnerParallel, MoreWorkersThanRepsIsFine) {
  assert_contract(general_gen(), baselines::make_aloha_window_factory(4.0),
                  /*reps=*/2, /*seed=*/912);
}

TEST(RunnerParallel, TracedStreamsAreIdentical) {
  // With a tracer attached, parallel workers record per-replication events
  // and replay them at fold time — sinks must observe the byte-identical
  // stream (same events, same order, same seq stamps) as a one-worker run,
  // which emits straight into the tracer.
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  const auto factory = core::punctual::make_punctual_factory(params);
  const auto gen = general_gen();

  const auto collect = [&](int threads) {
    obs::Tracer tracer;
    auto sink = std::make_shared<obs::CollectSink>();
    tracer.add_sink(sink);
    const auto report = run_replications(
        gen, factory, 3, 1013, {.tracer = &tracer, .threads = threads});
    tracer.close();
    EXPECT_EQ(report.replications, 3);
    return sink->events();
  };

  const std::vector<obs::TraceEvent> serial = collect(1);
  ASSERT_FALSE(serial.empty());
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    test::expect_events_identical(serial, collect(threads));
  }
}

TEST(RunnerParallel, GeneratorRngIsReplicationRng) {
  // Replication r generates from replication_rng(seed, r) at every worker
  // count; E13's EDF ceiling relies on it to rebuild the sweep's instances.
  constexpr int kReps = 6;
  constexpr std::uint64_t kSeed = 4242;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::mutex mu;
    std::vector<int> seen;  // the rep whose stream each call got, in order
    const InstanceGen gen = [&](util::Rng& rng) {
      util::Rng probe = rng;
      const std::uint64_t draw = probe.next_u64();
      const std::lock_guard<std::mutex> lock(mu);
      for (int rep = 0; rep < kReps; ++rep) {
        util::Rng expected = replication_rng(kSeed, rep);
        if (expected.seed() == rng.seed() && expected.next_u64() == draw) {
          seen.push_back(rep);
        }
      }
      return workload::gen_batch(2, 64, 0);
    };
    const auto report =
        run_replications(gen, baselines::make_aloha_window_factory(4.0),
                         kReps, kSeed, {.threads = threads});
    EXPECT_EQ(report.replications, kReps);
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kReps));
    if (threads > 1) {
      std::sort(seen.begin(), seen.end());
    }
    for (int rep = 0; rep < kReps; ++rep) {
      EXPECT_EQ(seen[static_cast<std::size_t>(rep)], rep);
    }
  }
}

TEST(RunnerParallel, GeneratorExceptionsPropagate) {
  const InstanceGen gen = [](util::Rng&) -> workload::Instance {
    throw std::runtime_error("generator failure");
  };
  EXPECT_THROW(
      {
        const auto report = run_replications(
            gen, baselines::make_aloha_window_factory(4.0), 8, 1,
            {.threads = 4});
        (void)report;
      },
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// util::run_ordered, the pool under run_replications and run_sharded
// ---------------------------------------------------------------------------

TEST(RunOrdered, ConsumesInIndexOrderWhenIndexZeroFinishesLast) {
  // produce(0) holds its worker until the other worker has produced every
  // other index, so every later result waits in the pool's pending map;
  // consume must still see 0..n-1 in order. The wait is bounded so that a
  // pool that never runs the other indices fails instead of hanging.
  constexpr int kN = 32;
  std::atomic<int> others{0};
  std::atomic<bool> timed_out{false};
  std::vector<int> consumed;
  util::run_ordered(
      kN, 2,
      [&](int i) {
        if (i == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (others.load() < kN - 1) {
            if (std::chrono::steady_clock::now() > deadline) {
              timed_out = true;
              break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        } else {
          others.fetch_add(1);
        }
        return i * 10;
      },
      [&](int i, int value) {
        EXPECT_EQ(value, i * 10);
        consumed.push_back(i);
      });
  EXPECT_FALSE(timed_out) << "index 0 never saw the other indices produced";
  ASSERT_EQ(consumed.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(consumed[static_cast<std::size_t>(i)], i);
  }
}

TEST(RunOrdered, ProduceExceptionIsRethrownAfterTheJoin) {
  constexpr int kN = 64;
  constexpr int kFailing = 9;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<int> consumed;
    EXPECT_THROW(util::run_ordered(
                     kN, threads,
                     [&](int i) {
                       if (i == kFailing) {
                         throw std::runtime_error("produce failure");
                       }
                       return i;
                     },
                     [&](int i, int) { consumed.push_back(i); }),
                 std::runtime_error);
    // What was consumed is a prefix 0, 1, ... that stops short of kFailing.
    EXPECT_LE(consumed.size(), static_cast<std::size_t>(kFailing));
    for (std::size_t j = 0; j < consumed.size(); ++j) {
      EXPECT_EQ(consumed[j], static_cast<int>(j));
    }
  }
}

TEST(RunOrdered, ZeroTasksCallsNothing) {
  int calls = 0;
  util::run_ordered(
      0, 4,
      [&](int) {
        ++calls;
        return 0;
      },
      [&](int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(RunOrdered, OneWorkerRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  int produced = 0;
  util::run_ordered(
      16, 1,
      [&](int i) {
        EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << i;
        ++produced;
        return i;
      },
      [&](int i, int value) { EXPECT_EQ(i, value); });
  EXPECT_EQ(produced, 16);
}

}  // namespace
}  // namespace crmd::analysis
