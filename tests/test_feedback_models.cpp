// Tests for the pluggable channel feedback models (sim/channel.hpp,
// DESIGN.md §6f): ternary bit-identity, no-CD indistinguishability,
// noisy-model determinism, and capability round-trips through the
// registry and the simulator.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/runner.hpp"
#include "core/aligned/protocol.hpp"
#include "core/punctual/protocol.hpp"
#include "core/registry.hpp"
#include "core/uniform.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace crmd {
namespace {

/// One perceived slot: the outcome plus whether a payload arrived.
struct Perceived {
  sim::SlotOutcome outcome;
  bool has_message;

  friend bool operator==(const Perceived&, const Perceived&) = default;
};

/// Transmits its data message at the given offsets-since-release and logs
/// every perceived feedback. Never gives up on its own.
class RecordingProtocol final : public sim::Protocol {
 public:
  RecordingProtocol(std::vector<Slot> offsets,
                    std::shared_ptr<std::vector<Perceived>> log)
      : offsets_(std::move(offsets)), log_(std::move(log)) {}

  void on_activate(const sim::JobInfo& info) override { info_ = info; }

  sim::SlotAction on_slot(const sim::SlotView& view) override {
    sim::SlotAction action;
    for (const Slot o : offsets_) {
      if (o == view.since_release) {
        action.transmit = true;
        action.message = sim::make_data(info_.id);
        action.declared_prob = 1.0;
      }
    }
    return action;
  }

  void on_feedback(const sim::SlotView&, const sim::SlotFeedback& fb) override {
    log_->push_back({fb.outcome, fb.message.has_value()});
  }

  [[nodiscard]] bool done() const override { return false; }

 private:
  std::vector<Slot> offsets_;
  std::shared_ptr<std::vector<Perceived>> log_;
  sim::JobInfo info_;
};

/// Captures the ChannelCaps the simulator hands to on_activate.
class CapsProbeProtocol final : public sim::Protocol {
 public:
  explicit CapsProbeProtocol(std::shared_ptr<sim::ChannelCaps> out)
      : out_(std::move(out)) {}
  void on_activate(const sim::JobInfo& info) override { *out_ = info.caps; }
  sim::SlotAction on_slot(const sim::SlotView&) override { return {}; }
  void on_feedback(const sim::SlotView&, const sim::SlotFeedback&) override {}
  [[nodiscard]] bool done() const override { return false; }

 private:
  std::shared_ptr<sim::ChannelCaps> out_;
};

/// Three-job fixture: jobs 0 and 1 collide in slot 0, job 0 transmits
/// alone in slot 2, job 2 only listens. Slots 1 and 3 are empty. Returns
/// (listener log, job-0 transmitter log, result).
struct ScenarioLogs {
  std::shared_ptr<std::vector<Perceived>> listener =
      std::make_shared<std::vector<Perceived>>();
  std::shared_ptr<std::vector<Perceived>> transmitter =
      std::make_shared<std::vector<Perceived>>();
  sim::SimResult result;
};

ScenarioLogs run_scenario(const sim::FeedbackModel& model) {
  ScenarioLogs logs;
  workload::Instance instance;
  instance.jobs = {{0, 4}, {0, 4}, {0, 4}};
  const sim::ProtocolFactory factory = [&](const sim::JobInfo& info,
                                           util::Rng) {
    if (info.id == 0) {
      return std::unique_ptr<sim::Protocol>(std::make_unique<
          RecordingProtocol>(std::vector<Slot>{0, 2}, logs.transmitter));
    }
    if (info.id == 1) {
      // Second collider; its own perceptions are not asserted on.
      return std::unique_ptr<sim::Protocol>(std::make_unique<
          RecordingProtocol>(std::vector<Slot>{0},
                             std::make_shared<std::vector<Perceived>>()));
    }
    return std::unique_ptr<sim::Protocol>(
        std::make_unique<RecordingProtocol>(std::vector<Slot>{},
                                            logs.listener));
  };
  sim::SimConfig config;
  config.seed = 7;
  config.feedback = model;
  logs.result = sim::run(instance, factory, config);
  return logs;
}

// ---------------------------------------------------------------------------
// Ternary bit-identity
// ---------------------------------------------------------------------------

void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].success, b.jobs[i].success) << "job " << i;
    EXPECT_EQ(a.jobs[i].success_slot, b.jobs[i].success_slot) << "job " << i;
    EXPECT_EQ(a.jobs[i].transmissions, b.jobs[i].transmissions)
        << "job " << i;
  }
  EXPECT_EQ(a.metrics.slots_simulated, b.metrics.slots_simulated);
  EXPECT_EQ(a.metrics.silent_slots, b.metrics.silent_slots);
  EXPECT_EQ(a.metrics.success_slots, b.metrics.success_slots);
  EXPECT_EQ(a.metrics.noise_slots, b.metrics.noise_slots);
  EXPECT_EQ(a.metrics.feedback_flips, b.metrics.feedback_flips);
}

sim::SimResult run_aligned_batch(const sim::SimConfig& config) {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 9;
  return sim::run(workload::gen_batch(24, 512, 0),
                  core::aligned::make_aligned_factory(params), config);
}

TEST(TernaryBitIdentity, ExplicitTernaryMatchesDefault) {
  sim::SimConfig defaults;
  defaults.seed = 20260806;
  sim::SimConfig explicit_ternary = defaults;
  explicit_ternary.feedback = sim::FeedbackModel::ternary();
  expect_identical(run_aligned_batch(defaults),
                   run_aligned_batch(explicit_ternary));
}

TEST(TernaryBitIdentity, NoisyWithZeroEpsMatchesTernary) {
  // eps = 0 never draws from the flip stream, so the trajectories — not
  // just the aggregates — match the ternary run exactly.
  sim::SimConfig defaults;
  defaults.seed = 20260806;
  sim::SimConfig noisy0 = defaults;
  noisy0.feedback = sim::FeedbackModel::noisy(0.0);
  const auto a = run_aligned_batch(defaults);
  const auto b = run_aligned_batch(noisy0);
  expect_identical(a, b);
  EXPECT_EQ(b.metrics.feedback_flips, 0);
}

TEST(TernaryBitIdentity, RunOptionsFormMatchesPositionalForm) {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  const auto factory = core::aligned::make_aligned_factory(params);
  const analysis::InstanceGen gen = [](util::Rng&) {
    return workload::gen_batch(16, 256, 0);
  };
  // The four-argument call takes the default RunOptions.
  const auto legacy = analysis::run_replications(gen, factory, 3, 11);
  analysis::RunOptions options;  // default ternary feedback
  const auto via_options =
      analysis::run_replications(gen, factory, 3, 11, options);
  EXPECT_EQ(legacy.outcomes.overall().successes(),
            via_options.outcomes.overall().successes());
  EXPECT_EQ(legacy.outcomes.overall().trials(),
            via_options.outcomes.overall().trials());
  EXPECT_EQ(legacy.channel.slots_simulated,
            via_options.channel.slots_simulated);
  EXPECT_EQ(legacy.channel.noise_slots, via_options.channel.noise_slots);
  EXPECT_EQ(legacy.replications, via_options.replications);
}

// ---------------------------------------------------------------------------
// No-CD indistinguishability
// ---------------------------------------------------------------------------

TEST(CollisionAsSilence, EmptyAndCollidedSlotsIndistinguishable) {
  const auto logs = run_scenario(sim::FeedbackModel::collision_as_silence());
  // Slot 0 collided on the channel; slot 1 (and 3) were empty.
  EXPECT_EQ(logs.result.metrics.noise_slots, 1);
  const auto& listener = *logs.listener;
  ASSERT_GE(listener.size(), 4u);
  // A listener provably cannot tell the collided slot from an empty one:
  // the *entire perceived feedback* is equal, not just the outcome.
  EXPECT_EQ(listener[0], listener[1]);
  EXPECT_EQ(listener[0].outcome, sim::SlotOutcome::kSilence);
  EXPECT_FALSE(listener[0].has_message);
  // The success is still delivered to listeners.
  EXPECT_EQ(listener[2].outcome, sim::SlotOutcome::kSuccess);
  EXPECT_TRUE(listener[2].has_message);
}

TEST(CollisionAsSilence, TransmittersGetNoFailureCue) {
  const auto logs = run_scenario(sim::FeedbackModel::collision_as_silence());
  const auto& tx = *logs.transmitter;
  // Job 0 transmitted into the slot-0 collision: while transmitting it
  // cannot listen, so the failure reads as silence — no ACK channel.
  ASSERT_GE(tx.size(), 3u);
  EXPECT_EQ(tx[0].outcome, sim::SlotOutcome::kSilence);
  EXPECT_FALSE(tx[0].has_message);
  // Its solo transmission in slot 2 is still perceived as its success.
  EXPECT_EQ(tx[2].outcome, sim::SlotOutcome::kSuccess);
  // True successes are credited from the channel, not from perception.
  EXPECT_TRUE(logs.result.jobs[0].success);
}

TEST(BinaryAck, ListenersHearNothingTransmittersKeepAck) {
  const auto logs = run_scenario(sim::FeedbackModel::binary_ack());
  const auto& listener = *logs.listener;
  ASSERT_GE(listener.size(), 4u);
  // Pure listeners perceive silence in every slot — even the successful
  // broadcast in slot 2 never reaches them.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(listener[i].outcome, sim::SlotOutcome::kSilence) << "slot " << i;
    EXPECT_FALSE(listener[i].has_message) << "slot " << i;
  }
  // Transmitters keep the true outcome: failure ACK in slot 0, own
  // success in slot 2.
  const auto& tx = *logs.transmitter;
  ASSERT_GE(tx.size(), 3u);
  EXPECT_EQ(tx[0].outcome, sim::SlotOutcome::kNoise);
  EXPECT_EQ(tx[2].outcome, sim::SlotOutcome::kSuccess);
}

TEST(Ternary, ScenarioPerceivedExactly) {
  const auto logs = run_scenario(sim::FeedbackModel::ternary());
  const auto& listener = *logs.listener;
  ASSERT_GE(listener.size(), 4u);
  EXPECT_EQ(listener[0].outcome, sim::SlotOutcome::kNoise);
  EXPECT_EQ(listener[1].outcome, sim::SlotOutcome::kSilence);
  EXPECT_EQ(listener[2].outcome, sim::SlotOutcome::kSuccess);
  EXPECT_TRUE(listener[2].has_message);
}

// ---------------------------------------------------------------------------
// Noisy model determinism
// ---------------------------------------------------------------------------

sim::SimResult run_noisy(std::uint64_t seed, double eps) {
  sim::SimConfig config;
  config.seed = seed;
  config.feedback = sim::FeedbackModel::noisy(eps);
  core::Params params;
  return sim::run(workload::gen_batch(32, 256, 0),
                  core::make_uniform_factory(params), config);
}

TEST(NoisyModel, DeterministicFromSeedAndEps) {
  const auto a = run_noisy(21, 0.2);
  const auto b = run_noisy(21, 0.2);
  expect_identical(a, b);
  // ~20% of 256 slots flip; the run is long enough that zero flips would
  // mean the stream is not being drawn at all.
  EXPECT_GT(a.metrics.feedback_flips, 0);
  EXPECT_LT(a.metrics.feedback_flips, a.metrics.slots_simulated);
}

TEST(NoisyModel, EpsOneFlipsEverySlot) {
  const auto r = run_noisy(3, 1.0);
  EXPECT_EQ(r.metrics.feedback_flips, r.metrics.slots_simulated);
}

TEST(NoisyModel, FlipStreamVariesWithSeed) {
  // Different seeds produce different flip patterns. Comparing flip slots
  // via counts alone could collide, so compare against several seeds: at
  // least one must differ (all-equal would require a constant stream).
  const auto base = run_noisy(100, 0.3);
  bool any_different = false;
  for (std::uint64_t seed : {101, 102, 103}) {
    const auto other = run_noisy(seed, 0.3);
    if (other.metrics.feedback_flips != base.metrics.feedback_flips ||
        other.metrics.success_slots != base.metrics.success_slots ||
        other.metrics.noise_slots != base.metrics.noise_slots) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

// ---------------------------------------------------------------------------
// Capability round-trips
// ---------------------------------------------------------------------------

TEST(Capabilities, CapsMatchModelSemantics) {
  const auto ternary = sim::FeedbackModel::ternary().caps();
  EXPECT_TRUE(ternary.collision_detection);
  EXPECT_TRUE(ternary.listener_success_visible);
  EXPECT_TRUE(ternary.transmitter_ack);
  EXPECT_TRUE(ternary.reliable);

  const auto ack = sim::FeedbackModel::binary_ack().caps();
  EXPECT_FALSE(ack.collision_detection);
  EXPECT_FALSE(ack.listener_success_visible);
  EXPECT_TRUE(ack.transmitter_ack);
  EXPECT_TRUE(ack.reliable);

  const auto no_cd = sim::FeedbackModel::collision_as_silence().caps();
  EXPECT_FALSE(no_cd.collision_detection);
  EXPECT_TRUE(no_cd.listener_success_visible);
  EXPECT_FALSE(no_cd.transmitter_ack);
  EXPECT_TRUE(no_cd.reliable);

  const auto noisy = sim::FeedbackModel::noisy(0.1).caps();
  EXPECT_TRUE(noisy.collision_detection);
  EXPECT_FALSE(noisy.reliable);

  // The ablation hides what it takes away: protocols run unaware.
  EXPECT_EQ(sim::FeedbackModel::unaware_no_cd().caps(), ternary);
}

TEST(Capabilities, ParseRoundTripsEveryModel) {
  const sim::FeedbackModel models[] = {
      sim::FeedbackModel::ternary(),
      sim::FeedbackModel::binary_ack(),
      sim::FeedbackModel::collision_as_silence(),
      sim::FeedbackModel::noisy(0.05),
      sim::FeedbackModel::capture(0.5),
      sim::FeedbackModel::unaware_no_cd(),
  };
  const std::string usage = sim::feedback_usage();
  for (const auto& model : models) {
    const auto parsed = sim::parse_feedback_model(model.spec());
    ASSERT_TRUE(parsed.has_value()) << model.spec();
    EXPECT_EQ(*parsed, model) << model.spec();
    EXPECT_NE(usage.find(sim::to_string(model.kind)), std::string::npos)
        << model.spec();
  }
  // The list names every kind, in declaration order: to_string answers
  // "unknown" for the first value past it.
  for (std::size_t i = 0; i < std::size(models); ++i) {
    EXPECT_EQ(models[i].kind, static_cast<sim::FeedbackKind>(i));
  }
  EXPECT_STREQ(
      sim::to_string(static_cast<sim::FeedbackKind>(std::size(models))),
      "unknown");
  // Bare "noisy" defaults eps.
  const auto bare = sim::parse_feedback_model("noisy");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->kind, sim::FeedbackKind::kNoisy);
  EXPECT_DOUBLE_EQ(bare->eps, 0.05);
}

TEST(Capabilities, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(sim::parse_feedback_model("").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("bogus").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("ternary:0.5").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("noisy:").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("noisy:abc").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("noisy:0.5x").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("noisy:1.5").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("noisy:-0.1").has_value());
}

TEST(Capabilities, ValidateRejectsBadEps) {
  EXPECT_THROW(sim::FeedbackModel::noisy(1.5).validate(),
               std::invalid_argument);
  EXPECT_THROW(sim::FeedbackModel::noisy(-0.1).validate(),
               std::invalid_argument);
  sim::FeedbackModel stray;
  stray.eps = 0.3;  // eps on a non-noisy kind
  EXPECT_THROW(stray.validate(), std::invalid_argument);
  EXPECT_NO_THROW(sim::FeedbackModel::noisy(0.5).validate());
  EXPECT_NO_THROW(sim::FeedbackModel::ternary().validate());
}

TEST(Capabilities, SimulatorAdvertisesModelCaps) {
  for (const auto& model : {sim::FeedbackModel::ternary(),
                            sim::FeedbackModel::binary_ack(),
                            sim::FeedbackModel::collision_as_silence(),
                            sim::FeedbackModel::noisy(0.1),
                            sim::FeedbackModel::unaware_no_cd()}) {
    auto seen = std::make_shared<sim::ChannelCaps>();
    workload::Instance instance;
    instance.jobs = {{0, 2}};
    const sim::ProtocolFactory factory = [&](const sim::JobInfo&, util::Rng) {
      return std::unique_ptr<sim::Protocol>(
          std::make_unique<CapsProbeProtocol>(seen));
    };
    sim::SimConfig config;
    config.feedback = model;
    (void)sim::run(instance, factory, config);
    EXPECT_EQ(*seen, model.caps()) << model.spec();
  }
}

TEST(Capabilities, RegistryCatalogRoundTrips) {
  const auto names = core::protocol_names();
  const auto catalog = core::protocol_catalog();
  ASSERT_EQ(names.size(), catalog.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(catalog[i].name, names[i]);
    const auto info = core::protocol_info(names[i]);
    ASSERT_TRUE(info.has_value()) << names[i];
    EXPECT_EQ(info->name, catalog[i].name);
    EXPECT_EQ(info->needs_collision_detection,
              catalog[i].needs_collision_detection);
  }
  EXPECT_FALSE(core::protocol_info("nonesuch").has_value());

  const auto aligned = core::protocol_info("aligned");
  ASSERT_TRUE(aligned.has_value());
  EXPECT_TRUE(aligned->needs_collision_detection);
  EXPECT_TRUE(aligned->adapts_to_degraded_channel);
  EXPECT_TRUE(aligned->supports(sim::FeedbackModel::ternary().caps()));
  EXPECT_FALSE(aligned->supports(sim::FeedbackModel::binary_ack().caps()));

  const auto uniform = core::protocol_info("uniform");
  ASSERT_TRUE(uniform.has_value());
  EXPECT_FALSE(uniform->needs_collision_detection);
  EXPECT_TRUE(uniform->supports(
      sim::FeedbackModel::collision_as_silence().caps()));
}

// ---------------------------------------------------------------------------
// Degraded-mode fallbacks
// ---------------------------------------------------------------------------

TEST(DegradedMode, AlignedFallsBackToBlindSchedule) {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  core::aligned::AlignedProtocol proto(params, util::Rng(5));
  sim::JobInfo info;
  info.id = 0;
  info.release = 0;
  info.deadline = 256;
  info.caps = sim::FeedbackModel::binary_ack().caps();
  proto.on_activate(info);
  EXPECT_TRUE(proto.degraded());
  // Blind mode transmits with the anarchist probability and never gives
  // up: silence forever must not trip the truncation give-up.
  bool declared_positive = false;
  for (Slot t = 0; t < 256; ++t) {
    const auto action = proto.on_slot({t, t});
    declared_positive |= action.declared_prob > 0.0;
    proto.on_feedback({t, t}, {});
    ASSERT_FALSE(proto.done()) << "slot " << t;
  }
  EXPECT_TRUE(declared_positive);
  EXPECT_EQ(proto.stage(), core::aligned::AlignedProtocol::Stage::kRunning);
}

TEST(DegradedMode, FloorFormulaIsDeadlineAware) {
  core::Params params;
  const Slot w = 1 << 10;
  // Full laxity reproduces the anarchist schedule exactly.
  EXPECT_DOUBLE_EQ(params.degraded_floor_tx_prob(w, w),
                   params.anarchist_tx_prob(w));
  EXPECT_DOUBLE_EQ(params.degraded_floor_tx_prob(w, w + 99),
                   params.anarchist_tx_prob(w));
  // Shrinking laxity only ever raises the probability (monotone aging)...
  double prev = 0.0;
  for (Slot remaining = w; remaining >= 1; --remaining) {
    const double p = params.degraded_floor_tx_prob(w, remaining);
    EXPECT_GE(p, prev) << "remaining=" << remaining;
    prev = p;
  }
  // ...up to the global cap, never beyond.
  EXPECT_DOUBLE_EQ(params.degraded_floor_tx_prob(w, 1), params.max_tx_prob);
}

TEST(DegradedMode, AlignedBlindScheduleRampsTowardDeadline) {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  core::aligned::AlignedProtocol proto(params, util::Rng(5));
  sim::JobInfo info;
  info.id = 0;
  info.release = 0;
  info.deadline = 256;
  info.caps = sim::FeedbackModel::collision_as_silence().caps();
  proto.on_activate(info);
  ASSERT_TRUE(proto.degraded());
  std::vector<double> declared;
  for (Slot t = 0; t < 256; ++t) {
    declared.push_back(proto.on_slot({t, t}).declared_prob);
    proto.on_feedback({t, t}, {});
  }
  // Slot 0 is the plain anarchist schedule; the last slot has ramped to
  // the cap; the ramp never decreases in between.
  EXPECT_DOUBLE_EQ(declared.front(), params.anarchist_tx_prob(256));
  EXPECT_DOUBLE_EQ(declared.back(), params.max_tx_prob);
  for (std::size_t i = 1; i < declared.size(); ++i) {
    EXPECT_GE(declared[i], declared[i - 1]) << "slot " << i;
  }
}

TEST(DegradedMode, PunctualNoCdDesperateRampsButTinyWindowStaysFlat) {
  core::Params params;
  // The no-CD desperate flavor uses the deadline-aware floor...
  {
    core::punctual::PunctualProtocol proto(params, util::Rng(5));
    sim::JobInfo info;
    info.id = 0;
    info.release = 0;
    info.deadline = 1 << 12;
    info.caps = sim::FeedbackModel::collision_as_silence().caps();
    proto.on_activate(info);
    ASSERT_EQ(proto.stage(),
              core::punctual::PunctualProtocol::Stage::kDesperate);
    const double early = proto.on_slot({0, 0}).declared_prob;
    proto.on_feedback({0, 0}, {});
    const double late =
        proto.on_slot({(1 << 12) - 1, (1 << 12) - 1}).declared_prob;
    EXPECT_DOUBLE_EQ(early, params.anarchist_tx_prob(1 << 12));
    EXPECT_DOUBLE_EQ(late, params.max_tx_prob);
  }
  // ...while the tiny-window desperate flavor keeps the flat anarchist
  // schedule (its ternary trajectory is digest-pinned).
  {
    core::punctual::PunctualProtocol proto(params, util::Rng(5));
    sim::JobInfo info;
    info.id = 0;
    info.release = 0;
    info.deadline = 32;  // below punctual_min_window
    proto.on_activate(info);
    ASSERT_EQ(proto.stage(),
              core::punctual::PunctualProtocol::Stage::kDesperate);
    const double early = proto.on_slot({0, 0}).declared_prob;
    proto.on_feedback({0, 0}, {});
    const double late = proto.on_slot({31, 31}).declared_prob;
    EXPECT_DOUBLE_EQ(early, params.anarchist_tx_prob(32));
    EXPECT_DOUBLE_EQ(late, early);
  }
}

TEST(DegradedMode, AlignedStillValidatesWindowAlignment) {
  core::Params params;
  core::aligned::AlignedProtocol proto(params, util::Rng(5));
  sim::JobInfo info;
  info.release = 3;  // not aligned to the window size
  info.deadline = 3 + 256;
  info.caps = sim::FeedbackModel::binary_ack().caps();
  EXPECT_THROW(proto.on_activate(info), std::invalid_argument);
}

TEST(DegradedMode, PunctualEntersDesperateWithoutCollisionDetection) {
  core::Params params;
  core::punctual::PunctualProtocol proto(params, util::Rng(5));
  sim::JobInfo info;
  info.id = 0;
  info.release = 0;
  info.deadline = 1 << 12;  // far above punctual_min_window
  info.caps = sim::FeedbackModel::collision_as_silence().caps();
  proto.on_activate(info);
  EXPECT_EQ(proto.stage(), core::punctual::PunctualProtocol::Stage::kDesperate);
  EXPECT_TRUE(proto.was_anarchist());
}

TEST(DegradedMode, FullChannelKeepsFullMachinery) {
  core::Params params;
  core::punctual::PunctualProtocol proto(params, util::Rng(5));
  sim::JobInfo info;
  info.id = 0;
  info.release = 0;
  info.deadline = 1 << 12;
  info.caps = sim::FeedbackModel::noisy(0.1).caps();  // CD present
  proto.on_activate(info);
  EXPECT_NE(proto.stage(), core::punctual::PunctualProtocol::Stage::kDesperate);

  core::Params aparams;
  aparams.min_class = 8;
  core::aligned::AlignedProtocol aproto(aparams, util::Rng(5));
  sim::JobInfo ainfo;
  ainfo.release = 0;
  ainfo.deadline = 256;
  aproto.on_activate(ainfo);  // default caps: full ternary
  EXPECT_FALSE(aproto.degraded());
}

// ---------------------------------------------------------------------------
// Capture model (DESIGN.md §6i)
// ---------------------------------------------------------------------------

TEST(Capture, ParseRoundTripsAndDefaults) {
  const auto half = sim::parse_feedback_model("capture:0.5");
  ASSERT_TRUE(half.has_value());
  EXPECT_EQ(half->kind, sim::FeedbackKind::kCapture);
  EXPECT_DOUBLE_EQ(half->alpha, 0.5);
  EXPECT_EQ(*sim::parse_feedback_model(half->spec()), *half);

  const auto bare = sim::parse_feedback_model("capture");
  ASSERT_TRUE(bare.has_value());
  EXPECT_DOUBLE_EQ(bare->alpha, 0.5);
}

TEST(Capture, ParseRejectsMalformedCaptureSpecs) {
  EXPECT_FALSE(sim::parse_feedback_model("capture:").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("capture:-1").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("capture:1.5").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("capture:1.5:junk").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("capture:0.5:junk").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("capture:junk").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("capture:0.5x").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("noisy:capture").has_value());
  EXPECT_FALSE(sim::parse_feedback_model("ternary:capture").has_value());
}

TEST(Capture, ParseSpecDiagnosesOnFailureOnly) {
  // The CLI-facing wrapper: same acceptance as parse_feedback_model, plus
  // a one-line diagnostic naming the spec and the usage string.
  std::ostringstream quiet;
  const auto good = sim::parse_feedback_spec("capture:0.25", quiet);
  ASSERT_TRUE(good.has_value());
  EXPECT_DOUBLE_EQ(good->alpha, 0.25);
  EXPECT_TRUE(quiet.str().empty());

  std::ostringstream diag;
  EXPECT_FALSE(sim::parse_feedback_spec("capture:2", diag).has_value());
  EXPECT_NE(diag.str().find("bad --feedback spec 'capture:2'"),
            std::string::npos);
  EXPECT_NE(diag.str().find("capture[:alpha]"), std::string::npos);
}

TEST(Capture, ParseCollisionCost) {
  std::ostringstream quiet;
  const auto three = sim::parse_collision_cost("3", quiet);
  ASSERT_TRUE(three.has_value());
  EXPECT_EQ(*three, 3);
  EXPECT_EQ(*sim::parse_collision_cost("1", quiet), 1);
  EXPECT_TRUE(quiet.str().empty());

  for (const char* bad : {"0", "-2", "abc", "2x", "", "1.5"}) {
    std::ostringstream diag;
    EXPECT_FALSE(sim::parse_collision_cost(bad, diag).has_value()) << bad;
    EXPECT_NE(diag.str().find("bad --collision-cost"), std::string::npos)
        << bad;
  }
}

TEST(Capture, ValidateRejectsBadAlpha) {
  EXPECT_THROW(sim::FeedbackModel::capture(1.5).validate(),
               std::invalid_argument);
  EXPECT_THROW(sim::FeedbackModel::capture(-0.1).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(sim::FeedbackModel::capture(0.0).validate());
  EXPECT_NO_THROW(sim::FeedbackModel::capture(1.0).validate());
  sim::FeedbackModel stray;
  stray.alpha = 0.3;  // alpha on a non-capture kind
  EXPECT_THROW(stray.validate(), std::invalid_argument);
}

TEST(Capture, CapsMatchTernaryAtZeroAlphaAndFlagCaptureAbove) {
  // alpha == 0 *is* the ternary channel; the advertised caps must not
  // nudge protocols into a different mode for an identical radio.
  EXPECT_EQ(sim::FeedbackModel::capture(0.0).caps(),
            sim::FeedbackModel::ternary().caps());
  const auto caps = sim::FeedbackModel::capture(0.5).caps();
  EXPECT_TRUE(caps.capture);
  EXPECT_TRUE(caps.collision_detection);
  EXPECT_TRUE(caps.reliable);
  EXPECT_FALSE(sim::FeedbackModel::ternary().caps().capture);
}

TEST(Capture, AlphaZeroScenarioIdenticalToTernary) {
  const auto ternary = run_scenario(sim::FeedbackModel::ternary());
  const auto capture0 = run_scenario(sim::FeedbackModel::capture(0.0));
  expect_identical(ternary.result, capture0.result);
  EXPECT_EQ(*ternary.listener, *capture0.listener);
  EXPECT_EQ(*ternary.transmitter, *capture0.transmitter);
  EXPECT_EQ(capture0.result.metrics.capture_wins, 0);
}

TEST(Capture, AlphaOneAlwaysLeaksAWinner) {
  // p_win = 1^(k-1) = 1: the slot-0 collision deterministically delivers
  // one of jobs {0, 1}; listeners perceive the captured broadcast.
  const auto logs = run_scenario(sim::FeedbackModel::capture(1.0));
  EXPECT_EQ(logs.result.metrics.capture_wins, 1);
  const auto& listener = *logs.listener;
  ASSERT_GE(listener.size(), 3u);
  EXPECT_EQ(listener[0].outcome, sim::SlotOutcome::kSuccess);
  EXPECT_TRUE(listener[0].has_message);
  // Whoever lost slot 0 perceived noise, not the winner's broadcast; job 0
  // retries alone in slot 2, so it succeeds either way.
  EXPECT_TRUE(logs.result.jobs[0].success);
  const bool job1_won = logs.result.jobs[1].success;
  const auto& tx = *logs.transmitter;
  ASSERT_GE(tx.size(), 1u);
  if (job1_won) {
    EXPECT_EQ(tx[0].outcome, sim::SlotOutcome::kNoise);
    EXPECT_FALSE(tx[0].has_message);
    EXPECT_EQ(logs.result.jobs[0].success_slot, 2);
  } else {
    EXPECT_EQ(tx[0].outcome, sim::SlotOutcome::kSuccess);
    EXPECT_EQ(logs.result.jobs[0].success_slot, 0);
  }
}

TEST(Capture, SoloTransmitterNeverNeedsCapture) {
  // k = 1 succeeds unconditionally — never billed as a capture win.
  const auto logs = run_scenario(sim::FeedbackModel::capture(0.5));
  EXPECT_TRUE(logs.result.jobs[0].success);
  const auto solo = run_scenario(sim::FeedbackModel::capture(1.0));
  // Slot 2 is job 0 alone: a plain channel success in both runs.
  EXPECT_GE(solo.result.metrics.success_slots, 1);
}

TEST(CollisionCost, FreezeBurnsExactlyCostSlotsAndWastesAttempts) {
  // Jobs 0 and 1 collide in slot 0 with cost = 3: slots 1-2 are frozen.
  // Job 0's retry in slot 2 lands inside the freeze — a full-price
  // transmission forced to noise — and its slot-4 retry succeeds, which
  // also proves a frozen slot does not re-arm the freeze.
  auto log0 = std::make_shared<std::vector<Perceived>>();
  workload::Instance instance;
  instance.jobs = {{0, 8}, {0, 8}};
  const sim::ProtocolFactory factory = [&](const sim::JobInfo& info,
                                           util::Rng) {
    if (info.id == 0) {
      return std::unique_ptr<sim::Protocol>(std::make_unique<
          RecordingProtocol>(std::vector<Slot>{0, 2, 4}, log0));
    }
    return std::unique_ptr<sim::Protocol>(std::make_unique<
        RecordingProtocol>(std::vector<Slot>{0},
                           std::make_shared<std::vector<Perceived>>()));
  };
  sim::SimConfig config;
  config.seed = 7;
  config.collision_cost = 3;
  const auto result = sim::run(instance, factory, config);

  EXPECT_EQ(result.metrics.collision_cost_slots, 2);
  ASSERT_GE(log0->size(), 5u);
  EXPECT_EQ((*log0)[0].outcome, sim::SlotOutcome::kNoise);  // the collision
  EXPECT_EQ((*log0)[1].outcome, sim::SlotOutcome::kNoise);  // frozen
  EXPECT_EQ((*log0)[2].outcome, sim::SlotOutcome::kNoise);  // frozen; wasted tx
  EXPECT_EQ((*log0)[3].outcome, sim::SlotOutcome::kSilence);
  EXPECT_EQ((*log0)[4].outcome, sim::SlotOutcome::kSuccess);
  EXPECT_TRUE(result.jobs[0].success);
  EXPECT_EQ(result.jobs[0].success_slot, 4);
  EXPECT_EQ(result.jobs[0].transmissions, 3);  // the frozen attempt billed
  // Cost slots are a subset of noise slots, never double-counted.
  EXPECT_GE(result.metrics.noise_slots, result.metrics.collision_cost_slots);
}

TEST(CollisionCost, CostOneIsTheDefaultChannel) {
  auto run_with_cost = [](int cost) {
    sim::SimConfig config;
    config.seed = 20260808;
    config.collision_cost = cost;
    core::Params params;
    return sim::run(workload::gen_batch(32, 256, 0),
                    core::make_uniform_factory(params), config);
  };
  const auto base = run_with_cost(1);
  expect_identical(base, run_with_cost(1));
  EXPECT_EQ(base.metrics.collision_cost_slots, 0);
}

TEST(CollisionCost, ValidateRejectsNonPositiveCost) {
  sim::SimConfig config;
  config.collision_cost = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.collision_cost = -3;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.collision_cost = 1;
  EXPECT_NO_THROW(config.validate());
}

TEST(Capture, SimulatorAdvertisesCaptureCaps) {
  auto seen = std::make_shared<sim::ChannelCaps>();
  workload::Instance instance;
  instance.jobs = {{0, 2}};
  const sim::ProtocolFactory factory = [&](const sim::JobInfo&, util::Rng) {
    return std::unique_ptr<sim::Protocol>(
        std::make_unique<CapsProbeProtocol>(seen));
  };
  sim::SimConfig config;
  config.feedback = sim::FeedbackModel::capture(0.7);
  (void)sim::run(instance, factory, config);
  EXPECT_TRUE(seen->capture);
  EXPECT_EQ(*seen, sim::FeedbackModel::capture(0.7).caps());
}

TEST(Capture, RegistryFlagsCollisionCountingEstimators) {
  // ALIGNED and PUNCTUAL size contention from collision counts; capture
  // biases those samples, and harnesses annotate sweeps from this flag.
  const auto aligned = core::protocol_info("aligned");
  const auto punctual = core::protocol_info("punctual");
  const auto uniform = core::protocol_info("uniform");
  ASSERT_TRUE(aligned && punctual && uniform);
  EXPECT_TRUE(aligned->estimates_from_collisions);
  EXPECT_TRUE(punctual->estimates_from_collisions);
  EXPECT_FALSE(uniform->estimates_from_collisions);
}

}  // namespace
}  // namespace crmd
