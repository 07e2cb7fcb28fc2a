// Tests for the observability subsystem (src/obs/): tracer/sink plumbing, golden JSONL and Chrome trace output, metrics
// registry, run profiler, watchdog invariants — and the contract the whole
// design hangs on: tracing must never change simulation results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/punctual/protocol.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace crmd {
namespace {

// ---- Tracer + sinks -------------------------------------------------------

TEST(Tracer, StampsMonotonicSeqAndDrainsInOrder) {
  obs::Tracer tracer;
  auto collect = std::make_shared<obs::CollectSink>();
  tracer.add_sink(collect);
  for (int i = 0; i < 100; ++i) {
    tracer.emit(obs::EventKind::kSlotResolved, i, i % 3);
  }
  ASSERT_EQ(collect->events().size(), 100u);
  for (std::size_t i = 0; i < collect->events().size(); ++i) {
    EXPECT_EQ(collect->events()[i].seq, i);
    EXPECT_EQ(collect->events()[i].job, static_cast<JobId>(i % 3));
  }
  EXPECT_EQ(tracer.emitted(), 100u);
}

TEST(Tracer, EmitAfterCloseIsDiscarded) {
  obs::Tracer tracer;
  auto collect = std::make_shared<obs::CollectSink>();
  tracer.add_sink(collect);
  tracer.emit(obs::EventKind::kSlotResolved, 1);
  tracer.close();
  tracer.emit(obs::EventKind::kSlotResolved, 2);
  EXPECT_EQ(collect->events().size(), 1u);
}

TEST(JsonlSink, GoldenLineShape) {
  obs::TraceEvent ev;
  ev.seq = 7;
  ev.slot = 42;
  ev.kind = obs::EventKind::kStage;
  ev.job = 3;
  ev.a = 1;
  ev.b = 2;
  ev.x = 0.5;
  ev.label = "probe";
  std::ostringstream out;
  obs::write_event_jsonl(out, ev);
  EXPECT_EQ(out.str(),
            "{\"seq\":7,\"slot\":42,\"kind\":\"stage\",\"job\":3,\"a\":1,"
            "\"b\":2,\"x\":0.5,\"label\":\"probe\"}\n");

  // Channel-wide event: job/x/label fields are omitted when defaulted.
  obs::TraceEvent bare;
  bare.seq = 0;
  bare.slot = 9;
  bare.kind = obs::EventKind::kSlotResolved;
  std::ostringstream out2;
  obs::write_event_jsonl(out2, bare);
  EXPECT_EQ(out2.str(),
            "{\"seq\":0,\"slot\":9,\"kind\":\"slot-resolved\",\"a\":0,"
            "\"b\":0}\n");
}

TEST(ChromeTraceSink, RendersSpansCountersAndMetadata) {
  obs::ChromeTraceSink sink("");  // path-less: keeps records for render()
  auto ev = [](obs::EventKind kind, Slot slot, JobId job, std::int64_t a,
               std::int64_t b, double x, const char* label) {
    obs::TraceEvent e;
    e.kind = kind;
    e.slot = slot;
    e.job = job;
    e.a = a;
    e.b = b;
    e.x = x;
    e.label = label;
    return e;
  };
  sink.on_event(ev(obs::EventKind::kJobActivate, 0, 1, 0, 64, 0, nullptr));
  sink.on_event(ev(obs::EventKind::kStage, 0, 1, 0, 1, 0, "sync-listen"));
  sink.on_event(ev(obs::EventKind::kStage, 10, 1, 1, 2, 0, "probe"));
  sink.on_event(
      ev(obs::EventKind::kSlotResolved, 5, kNoJob, 0, 2, 1.25, nullptr));
  sink.on_event(ev(obs::EventKind::kJobRetire, 20, 1, 1, 0, 0, nullptr));

  std::ostringstream out;
  sink.render(out);
  const std::string doc = out.str();
  // Structure: one document object with a traceEvents array.
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  // Stage spans: sync-listen spans [0, 10), probe closes at retirement.
  EXPECT_NE(doc.find("\"name\":\"sync-listen\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  // Contention counter track.
  EXPECT_NE(doc.find("\"contention\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  // Process metadata for tooling.
  EXPECT_NE(doc.find("process_name"), std::string::npos);
}

// A sink with a path writes each record as it arrives; its file must hold
// the bytes a path-less sink renders over the same events, dangling spans
// (closed at close()) included.
TEST(ChromeTraceSink, StreamedFileEqualsRender) {
  const std::string path = testing::TempDir() + "crmd_chrome_stream.json";
  const auto streamed = std::make_shared<obs::ChromeTraceSink>(path);
  const auto kept = std::make_shared<obs::ChromeTraceSink>("");
  obs::Tracer tracer;
  tracer.add_sink(streamed);
  tracer.add_sink(kept);
  sim::SimConfig config;
  config.seed = 3;
  config.tracer = &tracer;
  const auto result = sim::run(workload::gen_batch(8, 1 << 11),
                               *core::make_protocol("punctual", {}), config);
  ASSERT_FALSE(result.jobs.empty());
  // A stage span that no retirement closes.
  tracer.emit(obs::EventKind::kStage, 1 << 11, 99, 0, 1, 0.0, "probe");
  tracer.close();

  std::ostringstream want;
  kept->render(want);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream got;
  got << in.rdbuf();
  EXPECT_GT(want.str().size(), 10000U);
  EXPECT_NE(want.str().find("\"tid\":99}"), std::string::npos);
  EXPECT_EQ(got.str(), want.str());
  std::remove(path.c_str());
}

// ---- LogHistogram ---------------------------------------------------------

TEST(LogHistogram, BucketBoundaries) {
  obs::LogHistogram h;
  // Bucket 0: values < 1 (including negatives, clamped).
  h.add(0);
  h.add(-5);
  // Bucket 1: [1, 2).
  h.add(1);
  // Bucket 2: [2, 4).
  h.add(2);
  h.add(3);
  // Bucket 3: [4, 8).
  h.add(4);
  h.add(7);
  // Bucket 4: [8, 16).
  h.add(8);

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 2u);
  EXPECT_EQ(h.bucket_count(4), 1u);
  EXPECT_EQ(h.count(), 8u);

  EXPECT_EQ(h.bucket_lo(0), 0);
  EXPECT_EQ(h.bucket_hi(0), 1);
  EXPECT_EQ(h.bucket_lo(3), 4);
  EXPECT_EQ(h.bucket_hi(3), 8);

  // Exact powers of two land in the bucket whose *lower* bound they are.
  obs::LogHistogram p;
  p.add(1024);
  EXPECT_EQ(p.bucket_count(11), 1u);  // [1024, 2048)
}

TEST(LogHistogram, PercentileIsBucketUpperBound) {
  obs::LogHistogram h;
  for (int i = 0; i < 99; ++i) {
    h.add(3);  // bucket [2, 4)
  }
  h.add(1000);  // bucket [512, 1024)
  EXPECT_EQ(h.percentile(0.5), 4);
  EXPECT_EQ(h.percentile(0.99), 4);
  EXPECT_EQ(h.percentile(1.0), 1024);
}

// ---- Registry -------------------------------------------------------------

TEST(Registry, NamedMetricsAndTypeOwnership) {
  obs::Registry reg;
  reg.counter("sim.slots").inc(10);
  reg.counter("sim.slots").inc(5);
  reg.gauge("run.gamma").set(0.03125);
  reg.histogram("job.latency").add(100);

  EXPECT_EQ(reg.counter_value("sim.slots"), 15);
  EXPECT_DOUBLE_EQ(reg.gauge_value("run.gamma"), 0.03125);
  EXPECT_TRUE(reg.has("job.latency"));
  EXPECT_FALSE(reg.has("nope"));
  EXPECT_EQ(reg.size(), 3u);

  // A name owns its first-used type.
  EXPECT_THROW(reg.gauge("sim.slots"), std::invalid_argument);
  EXPECT_THROW((void)reg.counter_value("run.gamma"), std::out_of_range);

  util::Table table = reg.to_table();
  EXPECT_EQ(table.rows(), 3u);

  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"sim.slots\": 15"), std::string::npos);

  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
}

// ---- RunProfiler ----------------------------------------------------------

TEST(RunProfiler, AccumulatesPhasesAndSlots) {
  obs::RunProfiler prof;
  {
    const auto scope = prof.phase("simulation");
  }
  {
    const auto scope = prof.phase("simulation");
  }
  prof.add_phase_ms("export", 2.5);
  prof.add_slots(1000);

  ASSERT_EQ(prof.phases().size(), 2u);
  EXPECT_EQ(prof.phases()[0].name, "simulation");
  EXPECT_EQ(prof.phases()[0].calls, 2);
  EXPECT_EQ(prof.phases()[1].name, "export");
  EXPECT_DOUBLE_EQ(prof.phases()[1].ms, 2.5);
  EXPECT_EQ(prof.slots(), 1000);
  EXPECT_GE(prof.wall_ms(), 0.0);
  EXPECT_GE(prof.slots_per_sec(), 0.0);

  prof.reset();
  EXPECT_TRUE(prof.phases().empty());
  EXPECT_EQ(prof.slots(), 0);
}

// ---- Watchdog -------------------------------------------------------------

obs::TraceEvent make_event(obs::EventKind kind, Slot slot, JobId job,
                           std::int64_t a = 0, std::int64_t b = 0,
                           double x = 0.0, const char* label = nullptr) {
  obs::TraceEvent ev;
  ev.kind = kind;
  ev.slot = slot;
  ev.job = job;
  ev.a = a;
  ev.b = b;
  ev.x = x;
  ev.label = label;
  return ev;
}

TEST(Watchdog, FlagsTransmissionFromNonLiveJob) {
  obs::Watchdog dog;
  dog.on_event(make_event(obs::EventKind::kTransmit, 5, 0, 0, 0, 1.0,
                          "data"));
  EXPECT_FALSE(dog.ok());
  ASSERT_EQ(dog.violations().size(), 1u);
  EXPECT_NE(dog.violations()[0].what.find("non-live"), std::string::npos);
}

TEST(Watchdog, FlagsTransmissionOutsideWindow) {
  obs::Watchdog dog;
  dog.on_event(make_event(obs::EventKind::kJobActivate, 10, 0, 10, 20));
  dog.on_event(
      make_event(obs::EventKind::kTransmit, 25, 0, 0, 0, 1.0, "data"));
  EXPECT_EQ(dog.violation_count(), 1);
  EXPECT_NE(dog.report().find("tx-outside-window"), std::string::npos);
}

TEST(Watchdog, FlagsDataBeyondTrimmedWindowUnlessGridFree) {
  // Job released at 0 with window 100, trimmed to 50. A data send at slot
  // 60 violates the recheck rule — unless the job went anarchist first.
  obs::Watchdog dog;
  dog.on_event(make_event(obs::EventKind::kJobActivate, 0, 0, 0, 100));
  dog.on_event(make_event(obs::EventKind::kWindowTrim, 30, 0, 50));
  dog.on_event(
      make_event(obs::EventKind::kTransmit, 60, 0, 0, 0, 1.0, "data"));
  EXPECT_EQ(dog.violation_count(), 1);

  obs::Watchdog lenient;
  lenient.on_event(make_event(obs::EventKind::kJobActivate, 0, 0, 0, 100));
  lenient.on_event(make_event(obs::EventKind::kWindowTrim, 30, 0, 50));
  lenient.on_event(make_event(obs::EventKind::kStage, 55, 0, 5, 9,
                              0.0, "anarchist"));
  lenient.on_event(
      make_event(obs::EventKind::kTransmit, 60, 0, 0, 0, 1.0, "data"));
  EXPECT_TRUE(lenient.ok());
}

TEST(Watchdog, FlagsSuccessCreditedToDeadOrDoneJob) {
  obs::Watchdog dog;
  dog.on_event(make_event(obs::EventKind::kJobActivate, 0, 0, 0, 100));
  dog.on_event(make_event(obs::EventKind::kSuccessCredit, 10, 0));
  EXPECT_TRUE(dog.ok());
  dog.on_event(make_event(obs::EventKind::kSuccessCredit, 11, 0));
  EXPECT_EQ(dog.violation_count(), 1);  // duplicate credit

  obs::Watchdog dead;
  dead.on_event(make_event(obs::EventKind::kJobActivate, 0, 1, 0, 100));
  dead.on_event(make_event(obs::EventKind::kJobRetire, 50, 1, 0));
  dead.on_event(make_event(obs::EventKind::kSuccessCredit, 60, 1));
  EXPECT_EQ(dead.violation_count(), 1);
}

TEST(Watchdog, FlagsSuccessCreditDuringCostSlot) {
  // A collision-cost freeze forces the slot to noise, so crediting a
  // success in the same slot means the freeze override leaked.
  obs::Watchdog dog;
  dog.on_event(make_event(obs::EventKind::kJobActivate, 0, 0, 0, 100));
  dog.on_event(make_event(obs::EventKind::kCostSlot, 10, kNoJob, 1, 2));
  dog.on_event(make_event(obs::EventKind::kSuccessCredit, 10, 0));
  EXPECT_EQ(dog.violation_count(), 1);
  EXPECT_NE(dog.report().find("success-credit-during-cost-slot"),
            std::string::npos);

  // Credit in a *different* slot is fine.
  obs::Watchdog fine;
  fine.on_event(make_event(obs::EventKind::kJobActivate, 0, 0, 0, 100));
  fine.on_event(make_event(obs::EventKind::kCostSlot, 10, kNoJob, 1, 2));
  fine.on_event(make_event(obs::EventKind::kSuccessCredit, 11, 0));
  EXPECT_TRUE(fine.ok());
}

TEST(Watchdog, CostSlotStateResetsAcrossReplicationReplay) {
  // Parallel replications replay their buffered streams back-to-back into
  // one sink; slot numbers regress to 0 at each boundary. A cost slot
  // from replication r must not taint the same slot index in r+1.
  obs::Watchdog dog;
  dog.on_event(make_event(obs::EventKind::kJobActivate, 0, 0, 0, 100));
  dog.on_event(make_event(obs::EventKind::kCostSlot, 10, kNoJob, 1, 2));
  // Next replication: slot counter restarts.
  dog.on_event(make_event(obs::EventKind::kJobActivate, 0, 1, 0, 100));
  dog.on_event(make_event(obs::EventKind::kSuccessCredit, 10, 1));
  EXPECT_TRUE(dog.ok()) << dog.report();
}

TEST(Watchdog, OptInContentionCap) {
  obs::WatchdogConfig config;
  config.contention_cap = 2.0;
  config.settle_slots = 2;
  obs::Watchdog dog(config);
  // First two resolved slots are settling: no flag even above the cap.
  dog.on_event(
      make_event(obs::EventKind::kSlotResolved, 0, kNoJob, 0, 3, 5.0));
  dog.on_event(
      make_event(obs::EventKind::kSlotResolved, 1, kNoJob, 0, 3, 5.0));
  EXPECT_TRUE(dog.ok());
  dog.on_event(
      make_event(obs::EventKind::kSlotResolved, 2, kNoJob, 0, 3, 5.0));
  EXPECT_EQ(dog.violation_count(), 1);
}

// ---- End-to-end: simulator + protocols through the tracer -----------------

workload::Instance general_instance(std::uint64_t seed) {
  workload::GeneralConfig config;
  config.min_window = 1 << 9;
  config.max_window = 1 << 11;
  config.gamma = 1.0 / 32;
  config.horizon = 1 << 13;
  util::Rng rng(seed);
  return workload::gen_general(config, rng);
}

// ---- Concurrent producers -------------------------------------------------
//
// The Tracer, the profiler and the metrics registry are thread-safe. The
// worker pool gives each parallel task its own Tracer (obs::run_traced),
// but every task's Simulation charges the one global profiler, and
// harnesses feed the global registry from their folds. These tests drive
// each from several threads and assert exactness: no lost events, no lost
// increments, no spurious watchdog violations.

TEST(ObsConcurrent, TracerKeepsEveryEventFromConcurrentEmitters) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  obs::Tracer tracer;
  auto sink = std::make_shared<obs::CollectSink>();
  tracer.add_sink(sink);

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.emit(obs::EventKind::kTransmit, i, static_cast<JobId>(t), t,
                    i);
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  tracer.close();

  EXPECT_EQ(tracer.emitted(), kThreads * kPerThread);
  ASSERT_EQ(sink->events().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  // Seq stamps are unique, and per-thread event order survives the
  // interleaving: each thread's i payloads must arrive ascending.
  std::set<std::uint64_t> seqs;
  std::int64_t next_i[kThreads] = {};
  for (const obs::TraceEvent& ev : sink->events()) {
    seqs.insert(ev.seq);
    ASSERT_LT(ev.a, kThreads);
    EXPECT_EQ(ev.b, next_i[ev.a]) << "thread " << ev.a
                                  << " events reordered";
    ++next_i[ev.a];
  }
  EXPECT_EQ(seqs.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(ObsConcurrent, WatchdogStaysExactUnderConcurrentJobStreams) {
  // Four threads each walk disjoint jobs through a correct lifecycle
  // (activate -> in-window transmit -> success credit -> retire). A
  // correct stream interleaved across threads must produce zero
  // violations — the "counts exact, no spurious flags" half of the
  // concurrent-sink contract.
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 200;
  obs::Tracer tracer;
  auto dog = std::make_shared<obs::Watchdog>();
  auto sink = std::make_shared<obs::CollectSink>();
  tracer.add_sink(dog);
  tracer.add_sink(sink);

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&tracer, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        const JobId job = static_cast<JobId>(t * kJobsPerThread + j);
        const Slot release = j;
        const Slot deadline = release + 16;
        tracer.emit(obs::EventKind::kJobActivate, release, job, release,
                    deadline);
        tracer.emit(obs::EventKind::kTransmit, release + 1, job, 0, 0, 0.5,
                    "data");
        tracer.emit(obs::EventKind::kSuccessCredit, release + 1, job);
        tracer.emit(obs::EventKind::kJobRetire, release + 2, job, 1);
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  tracer.close();

  EXPECT_TRUE(dog->ok()) << dog->report();
  EXPECT_EQ(dog->violation_count(), 0);
  EXPECT_EQ(sink->events().size(),
            static_cast<std::size_t>(kThreads * kJobsPerThread * 4));
}

TEST(ObsConcurrent, RegistryCountsStayExactUnderContention) {
  obs::Registry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&registry] {
      // Resolve through the registry each round: hammers the name map
      // (mutex) as well as the metric atomics.
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("concurrent.hits").inc();
        registry.histogram("concurrent.lat").add(i & 1023);
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  EXPECT_EQ(registry.counter_value("concurrent.hits"),
            kThreads * kPerThread);
  EXPECT_EQ(registry.histogram("concurrent.lat").count(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ObsConcurrent, ProfilerPhaseCallsStayExactUnderContention) {
  obs::RunProfiler prof;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&prof] {
      for (int i = 0; i < kPerThread; ++i) {
        prof.add_phase_ms("simulation", 0.25);
        prof.add_slots(3);
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  const auto phases = prof.phases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].calls, kThreads * kPerThread);
  EXPECT_NEAR(phases[0].ms, 0.25 * kThreads * kPerThread, 1e-6);
  EXPECT_EQ(prof.slots(), 3 * kThreads * kPerThread);
}

TEST(ObsEndToEnd, TracingOnIsBitIdenticalToTracingOff) {
  core::Params params;
  params.min_class = 8;
  const auto factory = core::punctual::make_punctual_factory(params);

  sim::SimConfig off;
  off.seed = 99;
  const sim::SimResult base = sim::run(general_instance(5), factory, off);

  obs::Tracer tracer;
  auto collect = std::make_shared<obs::CollectSink>();
  tracer.add_sink(collect);
  sim::SimConfig on = off;
  on.tracer = &tracer;
  const sim::SimResult traced = sim::run(general_instance(5), factory, on);

  ASSERT_GT(collect->events().size(), 0u);
  ASSERT_EQ(base.jobs.size(), traced.jobs.size());
  for (std::size_t i = 0; i < base.jobs.size(); ++i) {
    EXPECT_EQ(base.jobs[i].success, traced.jobs[i].success);
    EXPECT_EQ(base.jobs[i].success_slot, traced.jobs[i].success_slot);
    EXPECT_EQ(base.jobs[i].transmissions, traced.jobs[i].transmissions);
  }
  EXPECT_EQ(base.metrics.slots_simulated, traced.metrics.slots_simulated);
  EXPECT_EQ(base.metrics.data_successes, traced.metrics.data_successes);
  EXPECT_EQ(base.metrics.noise_slots, traced.metrics.noise_slots);
  EXPECT_DOUBLE_EQ(base.metrics.contention.mean(),
                   traced.metrics.contention.mean());
}

TEST(ObsEndToEnd, EveryPunctualJobEmitsStageTransitions) {
  core::Params params;
  params.min_class = 8;
  const auto factory = core::punctual::make_punctual_factory(params);

  obs::Tracer tracer;
  auto collect = std::make_shared<obs::CollectSink>();
  auto watchdog = std::make_shared<obs::Watchdog>();
  tracer.add_sink(collect);
  tracer.add_sink(watchdog);
  sim::SimConfig config;
  config.seed = 99;
  config.tracer = &tracer;
  const sim::SimResult result = sim::run(general_instance(5), factory, config);

  ASSERT_GT(result.jobs.size(), 0u);
  std::set<JobId> with_stage;
  for (const auto& ev : collect->events()) {
    if (ev.kind == obs::EventKind::kStage) {
      with_stage.insert(ev.job);
    }
  }
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(with_stage.count(job.id)) << "job " << job.id;
  }
  // Fault-free feasible instance: the protocols' own account of the run
  // violates no invariant.
  EXPECT_TRUE(watchdog->ok()) << watchdog->report();
}

TEST(ObsEndToEnd, ScriptedRunTraceMatchesGroundTruth) {
  // Two jobs transmitting at disjoint offsets: the trace must show exactly
  // two kTransmit events, each inside its job's window.
  obs::Tracer tracer;
  auto collect = std::make_shared<obs::CollectSink>();
  tracer.add_sink(collect);
  sim::SimConfig config;
  config.tracer = &tracer;
  const auto result =
      sim::run(test::instance_of({{0, 16}, {4, 24}}),
               test::per_job_script_factory({{2}, {5}}), config);

  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_TRUE(result.jobs[0].success);
  EXPECT_TRUE(result.jobs[1].success);

  int transmits = 0;
  int activates = 0;
  int credits = 0;
  for (const auto& ev : collect->events()) {
    switch (ev.kind) {
      case obs::EventKind::kTransmit:
        ++transmits;
        break;
      case obs::EventKind::kJobActivate:
        ++activates;
        break;
      case obs::EventKind::kSuccessCredit:
        ++credits;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(transmits, 2);
  EXPECT_EQ(activates, 2);
  EXPECT_EQ(credits, 2);
  // Events arrive in seq order.
  for (std::size_t i = 1; i < collect->events().size(); ++i) {
    EXPECT_LT(collect->events()[i - 1].seq, collect->events()[i].seq);
  }
}

}  // namespace
}  // namespace crmd
