// Tests for obs::Timeline (src/obs/timeline.cpp): bucket merge/rescale
// algebra, the event-kind folding rules, the backoff-probability ladder,
// the numeric drift-check against sim::SlotOutcome (obs cannot name the
// enum — see timeline.cpp), the dropped-event accounting on the Tracer,
// and the headline determinism contract: the serialized timeline JSON is
// bit-identical for every --threads value and attaching a timeline never
// perturbs simulation results.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "analysis/runner.hpp"
#include "core/punctual/protocol.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/channel.hpp"
#include "workload/generators.hpp"

namespace crmd {
namespace {

obs::TraceEvent make_event(obs::EventKind kind, Slot slot, JobId job = kNoJob,
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

// ---- TimelineBucket algebra ------------------------------------------------

TEST(TimelineBucket, MergeSumsEveryField) {
  obs::TimelineBucket a;
  a.resolved_slots = 1;
  a.live_job_slots = 2;
  a.attempts = 3;
  a.contention_sum = 0.5;
  a.true_silence = 4;
  a.true_success = 5;
  a.true_noise = 6;
  a.seen_silence = 7;
  a.seen_success = 8;
  a.seen_noise = 9;
  a.activations = 10;
  a.retires = 11;
  a.expiries = 12;
  a.faults = 13;
  a.capture_wins = 14;
  a.cost_slots = 15;
  a.prob_level[0] = 1;
  a.prob_level[15] = 2;

  obs::TimelineBucket b = a;
  b.contention_sum = 1.25;
  a.merge(b);

  EXPECT_EQ(a.resolved_slots, 2);
  EXPECT_EQ(a.live_job_slots, 4);
  EXPECT_EQ(a.attempts, 6);
  EXPECT_DOUBLE_EQ(a.contention_sum, 1.75);
  EXPECT_EQ(a.true_silence, 8);
  EXPECT_EQ(a.true_success, 10);
  EXPECT_EQ(a.true_noise, 12);
  EXPECT_EQ(a.seen_silence, 14);
  EXPECT_EQ(a.seen_success, 16);
  EXPECT_EQ(a.seen_noise, 18);
  EXPECT_EQ(a.activations, 20);
  EXPECT_EQ(a.retires, 22);
  EXPECT_EQ(a.expiries, 24);
  EXPECT_EQ(a.faults, 26);
  EXPECT_EQ(a.capture_wins, 28);
  EXPECT_EQ(a.cost_slots, 30);
  EXPECT_EQ(a.prob_level[0], 2);
  EXPECT_EQ(a.prob_level[15], 4);
}

TEST(TimelineBucket, EmptyDetectsAnyNonzeroField) {
  obs::TimelineBucket b;
  EXPECT_TRUE(b.empty());
  b.contention_sum = 0.001;
  EXPECT_FALSE(b.empty());
  b = obs::TimelineBucket{};
  b.prob_level[7] = 1;
  EXPECT_FALSE(b.empty());
  b = obs::TimelineBucket{};
  b.capture_wins = 1;
  EXPECT_FALSE(b.empty());
  b = obs::TimelineBucket{};
  b.cost_slots = 1;
  EXPECT_FALSE(b.empty());
}

// ---- Bucketing and rescale -------------------------------------------------

TEST(Timeline, RoundsBucketCountUpToPowerOfTwo) {
  EXPECT_EQ(obs::Timeline(5).bucket_count(), 8u);
  EXPECT_EQ(obs::Timeline(64).bucket_count(), 64u);
  EXPECT_EQ(obs::Timeline(1).bucket_count(), 2u);  // minimum
}

TEST(Timeline, StartsWithSingleSlotBuckets) {
  obs::Timeline tl(4);
  EXPECT_EQ(tl.bucket_width(), 1);
  for (Slot s = 0; s < 4; ++s) {
    tl.on_event(make_event(obs::EventKind::kSlotResolved, s));
  }
  EXPECT_EQ(tl.bucket_width(), 1);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tl.bucket(i).resolved_slots, 1) << "bucket " << i;
  }
  EXPECT_EQ(tl.max_slot(), 3);
  EXPECT_EQ(tl.events_seen(), 4u);
}

TEST(Timeline, RescaleDoublesWidthAndFoldsAdjacentPairs) {
  obs::Timeline tl(4);
  for (Slot s = 0; s < 4; ++s) {
    tl.on_event(
        make_event(obs::EventKind::kSlotResolved, s, kNoJob, 0, 0, 0.25));
  }
  // Slot 4 does not fit in 4 one-slot buckets: widths double once.
  tl.on_event(make_event(obs::EventKind::kSlotResolved, 4));
  EXPECT_EQ(tl.bucket_width(), 2);
  EXPECT_EQ(tl.bucket(0).resolved_slots, 2);  // old slots 0+1
  EXPECT_DOUBLE_EQ(tl.bucket(0).contention_sum, 0.5);
  EXPECT_EQ(tl.bucket(1).resolved_slots, 2);  // old slots 2+3
  EXPECT_EQ(tl.bucket(2).resolved_slots, 1);  // the new event
  EXPECT_TRUE(tl.bucket(3).empty());
}

TEST(Timeline, DistantSlotTriggersRepeatedRescalesWithoutLosingCounts) {
  obs::Timeline tl(4);
  for (Slot s = 0; s < 4; ++s) {
    tl.on_event(make_event(obs::EventKind::kSlotResolved, s));
  }
  tl.on_event(make_event(obs::EventKind::kSlotResolved, 1000));
  // 1000 >> width_log2 must fit in 4 buckets: width 256, index 3.
  EXPECT_EQ(tl.bucket_width(), 256);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < tl.bucket_count(); ++i) {
    total += tl.bucket(i).resolved_slots;
  }
  EXPECT_EQ(total, 5);
  EXPECT_EQ(tl.bucket(0).resolved_slots, 4);
  EXPECT_EQ(tl.bucket(3).resolved_slots, 1);
  EXPECT_EQ(tl.max_slot(), 1000);
}

// ---- Event-kind folding rules ----------------------------------------------

TEST(Timeline, ProbLevelLadderEdges) {
  obs::Timeline tl(2);
  const auto transmit = [&](double p) {
    tl.on_event(make_event(obs::EventKind::kTransmit, 0, 0, 0, 0, p));
  };
  transmit(1.0);    // depth 0 -> level 0
  transmit(0.75);   // depth < 1 -> level 0
  transmit(0.5);    // depth exactly 1 -> level 1
  transmit(0.25);   // level 2
  transmit(1e-9);   // depth ~29.9 -> clamped to 15
  transmit(0.0);    // p <= 0 -> deepest level
  transmit(-1.0);   // defensive: still deepest
  const obs::TimelineBucket& b = tl.bucket(0);
  EXPECT_EQ(b.attempts, 7);
  EXPECT_EQ(b.prob_level[0], 2);
  EXPECT_EQ(b.prob_level[1], 1);
  EXPECT_EQ(b.prob_level[2], 1);
  EXPECT_EQ(b.prob_level[15], 3);
}

TEST(Timeline, OutcomePayloadsMatchSimSlotOutcomeValues) {
  // obs sits below sim, so timeline.cpp hardcodes the outcome payload
  // values. This is the drift check the comment there points at.
  EXPECT_EQ(static_cast<int>(sim::SlotOutcome::kSilence), 0);
  EXPECT_EQ(static_cast<int>(sim::SlotOutcome::kSuccess), 1);
  EXPECT_EQ(static_cast<int>(sim::SlotOutcome::kNoise), 2);

  obs::Timeline tl(2);
  const auto resolved = [&](sim::SlotOutcome o) {
    tl.on_event(make_event(obs::EventKind::kSlotResolved, 0, kNoJob,
                           static_cast<std::int64_t>(o)));
  };
  const auto perceived = [&](sim::SlotOutcome o, std::int64_t live) {
    tl.on_event(make_event(obs::EventKind::kSlotPerceived, 0, kNoJob,
                           static_cast<std::int64_t>(o), live));
  };
  resolved(sim::SlotOutcome::kSilence);
  resolved(sim::SlotOutcome::kSuccess);
  resolved(sim::SlotOutcome::kSuccess);
  resolved(sim::SlotOutcome::kNoise);
  perceived(sim::SlotOutcome::kSilence, 3);
  perceived(sim::SlotOutcome::kNoise, 5);

  const obs::TimelineBucket& b = tl.bucket(0);
  EXPECT_EQ(b.resolved_slots, 4);
  EXPECT_EQ(b.true_silence, 1);
  EXPECT_EQ(b.true_success, 2);
  EXPECT_EQ(b.true_noise, 1);
  EXPECT_EQ(b.seen_silence, 1);
  EXPECT_EQ(b.seen_noise, 1);
  EXPECT_EQ(b.seen_success, 0);
  EXPECT_EQ(b.live_job_slots, 8);
}

TEST(Timeline, LifecycleAndFaultKindsFoldAndProtocolKindsAreCountedOnly) {
  obs::Timeline tl(2);
  tl.on_event(make_event(obs::EventKind::kJobActivate, 0, 1));
  tl.on_event(make_event(obs::EventKind::kJobRetire, 0, 1, /*a=*/1));
  tl.on_event(make_event(obs::EventKind::kJobRetire, 0, 2, /*a=*/0));
  tl.on_event(make_event(obs::EventKind::kFault, 0, 1));
  tl.on_event(make_event(obs::EventKind::kCaptureWin, 0, 1, /*a=*/2, 0,
                         /*x=*/0.5, "capture"));
  tl.on_event(make_event(obs::EventKind::kCostSlot, 0, kNoJob, /*a=*/1,
                         /*b=*/3, 0.0, "cost"));
  tl.on_event(make_event(obs::EventKind::kCostSlot, 0, kNoJob, /*a=*/0,
                         /*b=*/0, 0.0, "cost"));
  tl.on_event(make_event(obs::EventKind::kStage, 0, 1, 0, 2, 0.0, "probe"));
  const obs::TimelineBucket& b = tl.bucket(0);
  EXPECT_EQ(b.activations, 1);
  EXPECT_EQ(b.retires, 1);
  EXPECT_EQ(b.expiries, 1);
  EXPECT_EQ(b.faults, 1);
  EXPECT_EQ(b.capture_wins, 1);
  EXPECT_EQ(b.cost_slots, 2);
  // kStage does not aggregate into the bucket but is still counted.
  EXPECT_EQ(tl.events_seen(), 8u);
}

TEST(Timeline, WriteJsonCarriesCaptureAndCostCounters) {
  obs::Timeline tl(2);
  tl.on_event(make_event(obs::EventKind::kCaptureWin, 0, 1, 2, 0, 0.5));
  tl.on_event(make_event(obs::EventKind::kCostSlot, 0, kNoJob, 1, 0, 0.0));
  std::ostringstream out;
  tl.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"capture_wins\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"cost_slots\": 1"), std::string::npos);
}

TEST(Timeline, WriteJsonEmitsSchemaMetaAndOnlyUsedBuckets) {
  obs::Timeline tl(8);
  tl.on_event(make_event(obs::EventKind::kSlotResolved, 0));
  tl.on_event(make_event(obs::EventKind::kSlotResolved, 2));
  std::ostringstream out;
  tl.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"crmd-timeline-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bucket_width\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"bucket_count\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"max_slot\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"events\": 2"), std::string::npos);
  // Buckets run 0..max_slot's bucket: exactly three slot_lo entries.
  std::size_t entries = 0;
  for (std::size_t pos = json.find("\"slot_lo\""); pos != std::string::npos;
       pos = json.find("\"slot_lo\"", pos + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 3u);
}

TEST(Timeline, EmptyTimelineWritesValidSkeleton) {
  obs::Timeline tl(4);
  std::ostringstream out;
  tl.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"events\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [\n]"), std::string::npos);
}

// ---- Tracer drop accounting (satellite: overflow visibility) ---------------

TEST(TracerDrops, SinklessTracerCountsEveryDiscardedEvent) {
  obs::Tracer tracer;
  constexpr int kEvents = 100;
  for (int i = 0; i < kEvents; ++i) {
    tracer.emit(obs::EventKind::kTransmit, i);
  }
  tracer.close();
  EXPECT_EQ(tracer.emitted(), static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(tracer.dropped(), static_cast<std::uint64_t>(kEvents));
}

TEST(TracerDrops, SinkedTracerDropsNothingAndCountsEmitsAfterClose) {
  obs::Tracer tracer;
  auto sink = std::make_shared<obs::CollectSink>();
  tracer.add_sink(sink);
  for (int i = 0; i < 100; ++i) {
    tracer.emit(obs::EventKind::kTransmit, i);
  }
  tracer.close();
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(sink->events().size(), 100u);

  tracer.emit(obs::EventKind::kTransmit, 0);  // after close: discarded
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_EQ(sink->events().size(), 100u);
}

// A sink hears only what is emitted after add_sink: earlier events are
// dropped on the spot, yet keep their seq numbers.
TEST(TracerDrops, EventsBeforeAddSinkAreDroppedAndNeverDelivered) {
  obs::Tracer tracer;
  for (int i = 0; i < 3; ++i) {
    tracer.emit(obs::EventKind::kTransmit, i);
  }
  EXPECT_EQ(tracer.dropped(), 3u);
  auto sink = std::make_shared<obs::CollectSink>();
  tracer.add_sink(sink);
  for (int i = 3; i < 5; ++i) {
    tracer.emit(obs::EventKind::kTransmit, i);
  }
  tracer.close();
  EXPECT_EQ(tracer.emitted(), 5u);
  EXPECT_EQ(tracer.dropped(), 3u);
  ASSERT_EQ(sink->events().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sink->events()[i].seq, 3 + i);
    EXPECT_EQ(sink->events()[i].slot, static_cast<Slot>(3 + i));
  }
}

// ---- Determinism contract --------------------------------------------------

workload::Instance timeline_instance(util::Rng& rng) {
  workload::GeneralConfig config;
  config.min_window = 1 << 9;
  config.max_window = 1 << 11;
  config.gamma = 1.0 / 32;
  config.horizon = 1 << 13;
  return workload::gen_general(config, rng);
}

struct TimelineRun {
  std::string json;
  std::uint64_t successes = 0;
  std::uint64_t trials = 0;
  std::int64_t slots = 0;
};

TimelineRun run_with_timeline(int threads) {
  core::Params params;
  params.min_class = 8;
  const auto factory = core::punctual::make_punctual_factory(params);

  obs::Tracer tracer;
  auto timeline = std::make_shared<obs::Timeline>(64);
  tracer.add_sink(timeline);

  analysis::RunOptions options;
  options.threads = threads;
  options.tracer = &tracer;
  const analysis::ReplicationReport report = analysis::run_replications(
      timeline_instance, factory, /*reps=*/6, /*base_seed=*/42, options);
  tracer.close();

  TimelineRun out;
  std::ostringstream json;
  timeline->write_json(json);
  out.json = json.str();
  out.successes = report.outcomes.overall().successes();
  out.trials = report.outcomes.overall().trials();
  out.slots = report.channel.slots_simulated;
  EXPECT_GT(timeline->events_seen(), 0u);
  return out;
}

TEST(TimelineDeterminism, JsonIsBitIdenticalForEveryThreadCount) {
  const TimelineRun serial = run_with_timeline(1);
  for (const int threads : {2, 8}) {
    const TimelineRun parallel = run_with_timeline(threads);
    EXPECT_EQ(serial.json, parallel.json) << "threads=" << threads;
    EXPECT_EQ(serial.successes, parallel.successes);
    EXPECT_EQ(serial.trials, parallel.trials);
    EXPECT_EQ(serial.slots, parallel.slots);
  }
}

TEST(TimelineDeterminism, AttachingTimelineDoesNotPerturbResults) {
  core::Params params;
  params.min_class = 8;
  const auto factory = core::punctual::make_punctual_factory(params);

  analysis::RunOptions bare;
  const analysis::ReplicationReport base = analysis::run_replications(
      timeline_instance, factory, /*reps=*/4, /*base_seed=*/7, bare);

  const auto traced_once = [&] {
    obs::Tracer tracer;
    auto timeline = std::make_shared<obs::Timeline>(32);
    tracer.add_sink(timeline);
    analysis::RunOptions options;
    options.tracer = &tracer;
    const analysis::ReplicationReport traced = analysis::run_replications(
        timeline_instance, factory, /*reps=*/4, /*base_seed=*/7, options);
    tracer.close();
    return traced;
  };
  const analysis::ReplicationReport traced = traced_once();

  EXPECT_EQ(base.outcomes.overall().successes(),
            traced.outcomes.overall().successes());
  EXPECT_EQ(base.outcomes.overall().trials(),
            traced.outcomes.overall().trials());
  EXPECT_EQ(base.channel.slots_simulated, traced.channel.slots_simulated);
  EXPECT_EQ(base.channel.data_successes, traced.channel.data_successes);
  EXPECT_DOUBLE_EQ(base.channel.contention.mean(),
                   traced.channel.contention.mean());
}

}  // namespace
}  // namespace crmd
