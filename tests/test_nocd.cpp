// Tests for the NOCD family (core/nocd, DESIGN.md §6g): the success-only
// inference contract (ternary <-> collision_as_silence bit-identity), the
// capped dry-epoch backoff, the robust variant's halving probes and
// deadline-aware ratio-capped floor, binary_ack per-collision backoff, and
// pinned slot-by-slot perceived-feedback sequences under a budgeted jammer
// composed with a crash/restart fault plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/runner.hpp"
#include "core/nocd/protocol.hpp"
#include "core/registry.hpp"
#include "report_digest.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace crmd {
namespace {

core::Params nocd_params() {
  core::Params params;
  params.lambda = 2;
  return params;
}

sim::JobInfo job_info(Slot window, const sim::ChannelCaps& caps) {
  sim::JobInfo info;
  info.id = 0;
  info.release = 0;
  info.deadline = window;
  info.caps = caps;
  return info;
}

// ---------------------------------------------------------------------------
// Success-only inference: ternary <-> collision_as_silence bit-identity
// ---------------------------------------------------------------------------

sim::SimResult run_saturated(bool robust, const sim::FeedbackModel& model) {
  sim::SimConfig config;
  config.seed = 20260808;
  config.feedback = model;
  return sim::run(workload::gen_batch(64, 128, 0),
                  core::nocd::make_nocd_factory(nocd_params(), robust),
                  config);
}

void expect_trajectory_identical(const sim::SimResult& a,
                                 const sim::SimResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].success, b.jobs[i].success) << "job " << i;
    EXPECT_EQ(a.jobs[i].success_slot, b.jobs[i].success_slot) << "job " << i;
    EXPECT_EQ(a.jobs[i].transmissions, b.jobs[i].transmissions)
        << "job " << i;
  }
  // Identical decisions => identical channel truth, not just outcomes.
  EXPECT_EQ(a.metrics.slots_simulated, b.metrics.slots_simulated);
  EXPECT_EQ(a.metrics.silent_slots, b.metrics.silent_slots);
  EXPECT_EQ(a.metrics.success_slots, b.metrics.success_slots);
  EXPECT_EQ(a.metrics.noise_slots, b.metrics.noise_slots);
}

TEST(NocdIdentity, TernaryMatchesCollisionAsSilenceBitIdentically) {
  // The §6g contract: decisions branch only on perceived successes, which
  // collision_as_silence delivers unchanged, so the entire trajectory —
  // every transmission of every job — matches the ternary run exactly.
  for (const bool robust : {false, true}) {
    expect_trajectory_identical(
        run_saturated(robust, sim::FeedbackModel::ternary()),
        run_saturated(robust, sim::FeedbackModel::collision_as_silence()));
  }
}

TEST(NocdIdentity, SaturatedBatchDeliversWithoutCollisionDetection) {
  // n = w/2 jobs, one window, no collision detection: the regime where the
  // blind anarchist fallback collapses (~100x, E19/E20). NOCD must keep a
  // constant fraction. The gauntlet pins ~0.5 at bench scale; 0.25 here
  // leaves slack for the smaller test instance.
  for (const bool robust : {false, true}) {
    const auto r =
        run_saturated(robust, sim::FeedbackModel::collision_as_silence());
    std::int64_t successes = 0;
    for (const auto& job : r.jobs) {
      successes += job.success ? 1 : 0;
    }
    EXPECT_GE(static_cast<double>(successes) /
                  static_cast<double>(r.jobs.size()),
              0.25)
        << "robust=" << robust;
  }
}

// ---------------------------------------------------------------------------
// Dry-epoch backoff: capped, never wraps; robust variant probes
// ---------------------------------------------------------------------------

/// Drives `proto` through `slots` silent slots (feeding back exactly what a
/// collision_as_silence channel with no other traffic would deliver) and
/// returns the lowest density exponent observed.
int min_exponent_over_silence(core::nocd::NocdProtocol& proto, int slots) {
  int min_k = proto.density_exponent();
  for (Slot t = 0; t < slots; ++t) {
    (void)proto.on_slot({t, t});
    proto.on_feedback({t, t}, {});  // silence
    min_k = std::min(min_k, proto.density_exponent());
    if (proto.done()) {
      break;  // cannot happen: a silent channel never grants a success
    }
  }
  return min_k;
}

TEST(NocdBackoff, PlainVariantNeverProbesUnderPersistentSilence) {
  // Dryness without collision detection is ambiguous, so the plain variant
  // only ever backs off (capped at k_max) — a jammer that silences the
  // channel must not be able to stampede it into a noise storm.
  core::nocd::NocdProtocol proto(nocd_params(), /*robust=*/false,
                                 util::Rng(7));
  proto.on_activate(
      job_info(1 << 16, sim::FeedbackModel::collision_as_silence().caps()));
  EXPECT_EQ(proto.density_exponent(), proto.max_exponent());
  EXPECT_EQ(proto.max_exponent(), 16);
  EXPECT_EQ(min_exponent_over_silence(proto, 2000), proto.max_exponent());
  EXPECT_EQ(proto.dry_sweeps(), 0);
  EXPECT_FALSE(proto.done());
}

TEST(NocdBackoff, RobustVariantProbesAfterDrySweepLimit) {
  // After nocd_dry_sweep_limit fully dry ladders the robust variant halves
  // its exponent to probe — unexplained silence must not starve it.
  const core::Params params = nocd_params();
  core::nocd::NocdProtocol proto(params, /*robust=*/true, util::Rng(7));
  proto.on_activate(
      job_info(1 << 16, sim::FeedbackModel::collision_as_silence().caps()));
  const int k_max = proto.max_exponent();
  // Two ladders of (k_max + 1) epochs each, plus the stagger slack.
  const int slots = static_cast<int>(params.nocd_epoch_len) *
                    (k_max + 1) * params.nocd_dry_sweep_limit * 2;
  EXPECT_LE(min_exponent_over_silence(proto, slots), k_max / 2);
}

TEST(NocdBackoff, ListenerSuccessesDrainTheEstimate) {
  // Perceived successes are the drain signal: enough of them halve the
  // believed contention and the exponent steps down.
  core::nocd::NocdProtocol proto(nocd_params(), /*robust=*/false,
                                 util::Rng(11));
  proto.on_activate(
      job_info(1 << 10, sim::FeedbackModel::collision_as_silence().caps()));
  const int k_start = proto.density_exponent();
  sim::SlotFeedback heard;
  heard.outcome = sim::SlotOutcome::kSuccess;
  heard.message = sim::make_data(99);
  for (Slot t = 0; t < 4096 && proto.density_exponent() == k_start; ++t) {
    const auto action = proto.on_slot({t, t});
    // Feed someone else's success only when we stayed silent, so the
    // "lone success while transmitting is ours" rule never fires.
    proto.on_feedback({t, t}, action.transmit ? sim::SlotFeedback{} : heard);
  }
  EXPECT_LT(proto.density_exponent(), k_start);
  EXPECT_FALSE(proto.done());
}

TEST(NocdBackoff, BinaryAckCollisionBacksOffImmediately) {
  // binary_ack: listeners hear nothing, but transmitters get the true
  // outcome — an own-collision is an explicit cue and backs off one step
  // without waiting out the epoch.
  core::nocd::NocdProtocol proto(nocd_params(), /*robust=*/false,
                                 util::Rng(3));
  proto.on_activate(job_info(4, sim::FeedbackModel::binary_ack().caps()));
  const int k_max = proto.max_exponent();
  // Walk slots until the protocol transmits (deterministic from the seed),
  // then report a collision.
  bool transmitted = false;
  for (Slot t = 0; t < 64; ++t) {
    const auto action = proto.on_slot({t, 0});
    if (action.transmit) {
      const int k_before = proto.density_exponent();
      sim::SlotFeedback fb;
      fb.outcome = sim::SlotOutcome::kNoise;
      proto.on_feedback({t, 0}, fb);
      EXPECT_EQ(proto.density_exponent(), std::min(k_before + 1, k_max));
      transmitted = true;
      break;
    }
    proto.on_feedback({t, 0}, {});
  }
  ASSERT_TRUE(transmitted);
  EXPECT_FALSE(proto.done());
}

TEST(NocdBackoff, OwnPerceivedSuccessCompletes) {
  core::nocd::NocdProtocol proto(nocd_params(), /*robust=*/true,
                                 util::Rng(3));
  proto.on_activate(
      job_info(4, sim::FeedbackModel::collision_as_silence().caps()));
  bool transmitted = false;
  for (Slot t = 0; t < 64; ++t) {
    const auto action = proto.on_slot({t, 0});
    sim::SlotFeedback fb;
    if (action.transmit) {
      fb.outcome = sim::SlotOutcome::kSuccess;
      fb.message = sim::make_data(0);
      transmitted = true;
    }
    proto.on_feedback({t, 0}, fb);
    if (transmitted) {
      break;
    }
  }
  ASSERT_TRUE(transmitted);
  EXPECT_TRUE(proto.done());
}

// ---------------------------------------------------------------------------
// Robust floor: endgame-only, ratio-capped, monotone aging
// ---------------------------------------------------------------------------

TEST(NocdFloor, EngagesOnlyInTheEndgame) {
  const core::Params params = nocd_params();
  core::nocd::NocdProtocol proto(params, /*robust=*/true, util::Rng(5));
  const Slot window = 256;
  proto.on_activate(
      job_info(window, sim::FeedbackModel::collision_as_silence().caps()));
  const int k = proto.density_exponent();  // k_max = 8 for w = 256
  ASSERT_EQ(k, 8);
  const double base = std::exp2(-k);
  const Slot sweep = params.nocd_epoch_len * Slot{k + 1};  // 72
  // Above one ladder of laxity the estimate rules alone.
  EXPECT_DOUBLE_EQ(proto.tx_prob(window), base);
  EXPECT_DOUBLE_EQ(proto.tx_prob(sweep + 1), base);
  // Inside the endgame the aging floor takes over, ratio-capped at 4x the
  // estimate-driven probability so a jammed-blind crowd cannot stampede.
  EXPECT_DOUBLE_EQ(proto.tx_prob(sweep), 4.0 * base);
  EXPECT_DOUBLE_EQ(proto.tx_prob(4), 4.0 * base);
  // Monotone aging: less laxity never lowers the probability.
  double prev = 0.0;
  for (Slot remaining = window; remaining >= 1; --remaining) {
    const double p = proto.tx_prob(remaining);
    EXPECT_GE(p, prev) << "remaining=" << remaining;
    prev = p;
  }
}

TEST(NocdFloor, PlainVariantHasNoFloor) {
  core::nocd::NocdProtocol proto(nocd_params(), /*robust=*/false,
                                 util::Rng(5));
  proto.on_activate(
      job_info(256, sim::FeedbackModel::collision_as_silence().caps()));
  const double base = std::exp2(-proto.density_exponent());
  EXPECT_DOUBLE_EQ(proto.tx_prob(256), base);
  EXPECT_DOUBLE_EQ(proto.tx_prob(1), base);
}

TEST(NocdFloor, FloorFormulaCappedAndAging) {
  const core::Params params = nocd_params();
  const auto aging = [&](Slot remaining) {
    return core::nocd_floor_tx_prob(params.lambda, params.max_tx_prob,
                                    remaining);
  };
  // λ / remaining, capped at max_tx_prob.
  EXPECT_DOUBLE_EQ(aging(1024), 2.0 / 1024.0);
  EXPECT_DOUBLE_EQ(aging(8), 0.25);
  EXPECT_DOUBLE_EQ(aging(4), params.max_tx_prob);
  EXPECT_DOUBLE_EQ(aging(1), params.max_tx_prob);
  EXPECT_DOUBLE_EQ(aging(0), params.max_tx_prob);
}

TEST(NocdFloor, ParamsValidationRejectsBadKnobs) {
  core::Params params = nocd_params();
  params.nocd_epoch_len = 0;
  EXPECT_THROW(core::nocd::make_nocd_factory(params, false),
               std::invalid_argument);
  params = nocd_params();
  params.nocd_dry_sweep_limit = 0;
  EXPECT_THROW(core::nocd::make_nocd_factory(params, true),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pinned perceived feedback under jammer + fault composition
// ---------------------------------------------------------------------------

/// Transmits its data message at fixed offsets-since-release and logs every
/// perceived feedback slot as one char: '_' silence, 'x' noise, 'M' success
/// with payload, 's' success without payload (binary_ack own-ACK).
class PerceptionLogger final : public sim::Protocol {
 public:
  PerceptionLogger(std::vector<Slot> offsets, std::shared_ptr<std::string> log)
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
    switch (fb.outcome) {
      case sim::SlotOutcome::kSilence:
        log_->push_back('_');
        break;
      case sim::SlotOutcome::kNoise:
        log_->push_back('x');
        break;
      case sim::SlotOutcome::kSuccess:
        log_->push_back(fb.message.has_value() ? 'M' : 's');
        break;
    }
  }

  [[nodiscard]] bool done() const override { return false; }

 private:
  std::vector<Slot> offsets_;
  std::shared_ptr<std::string> log_;
  sim::JobInfo info_;
};

/// Three jobs in one window of 8: jobs 0 and 1 collide in slot 0, job 0
/// transmits alone in slots 2 and 5, job 2 only listens. A budgeted
/// reactive jammer (budget 1 per window) can erase exactly one of the two
/// would-be successes; the crash/restart fault plan composes on top.
/// Returns (transmitter log, listener log).
std::pair<std::string, std::string> run_adversarial_scenario(
    const sim::FeedbackModel& model, const sim::FaultPlan& faults) {
  auto tx_log = std::make_shared<std::string>();
  auto listen_log = std::make_shared<std::string>();
  workload::Instance instance;
  instance.jobs = {{0, 8}, {0, 8}, {0, 8}};
  const sim::ProtocolFactory factory = [&](const sim::JobInfo& info,
                                           util::Rng) {
    if (info.id == 0) {
      return std::unique_ptr<sim::Protocol>(std::make_unique<
          PerceptionLogger>(std::vector<Slot>{0, 2, 5}, tx_log));
    }
    if (info.id == 1) {
      return std::unique_ptr<sim::Protocol>(std::make_unique<
          PerceptionLogger>(std::vector<Slot>{0},
                            std::make_shared<std::string>()));
    }
    return std::unique_ptr<sim::Protocol>(
        std::make_unique<PerceptionLogger>(std::vector<Slot>{}, listen_log));
  };
  sim::SimConfig config;
  config.seed = 20260808;
  config.feedback = model;
  config.faults = faults;
  (void)sim::run(instance, factory, config,
                 sim::make_budgeted_jammer(sim::make_reactive_jammer(1.0),
                                           /*budget=*/1,
                                           /*window_length=*/8));
  return {*tx_log, *listen_log};
}

sim::FaultPlan crashy_plan() {
  sim::FaultPlan plan;
  plan.crash_rate = 0.3;
  plan.crash_permanent_frac = 0.0;
  plan.stall_min = 1;
  plan.stall_max = 2;
  plan.feedback_loss_rate = 0.3;
  return plan;
}

// The pinned strings are regression anchors for the exact composition
// order channel -> jammer -> feedback model -> faults (seed 20260808). A
// change here means perceived feedback under adversity changed for every
// protocol; if intentional, re-pin from the failure output and say why in
// the commit message.

TEST(AdversarialPerception, CollisionAsSilencePinned) {
  const auto [tx, listen] = run_adversarial_scenario(
      sim::FeedbackModel::collision_as_silence(), {});
  // Slot 0: two-way collision reads as silence. Slot 2: the reactive
  // jammer spends its single budget token erasing the first would-be
  // success, which therefore also reads as silence. Slot 5: budget
  // exhausted, the success goes through to everyone — and the engine
  // retires the now-successful transmitter, so its log ends at slot 5
  // while the listener hears the remaining silent slots.
  EXPECT_EQ(tx, "_____M");
  EXPECT_EQ(listen, "_____M__");
}

TEST(AdversarialPerception, CollisionAsSilenceCrashyPinned) {
  // Same channel truth; the crash/stall plan additionally swallows
  // feedback slots on the listener's side (a crashed/stalled job perceives
  // nothing), shortening its log — without fabricating any outcome that
  // collision_as_silence would not deliver.
  const auto [tx, listen] = run_adversarial_scenario(
      sim::FeedbackModel::collision_as_silence(), crashy_plan());
  EXPECT_EQ(tx, "_____M");
  EXPECT_EQ(listen, "____M");
}

TEST(AdversarialPerception, NoisyEpsPinned) {
  // eps = 0.2 flips slot outcomes for everyone from one shared stream:
  // the slot-0 collision reads as silence, slots 2-3 flip to noise, and
  // slot 6's silence flips to noise for the listener. The slot-5 success
  // still goes through (flips never fabricate or destroy payloads here —
  // this pins that the jammer erased slot 2, not the noise stream).
  const auto [tx, listen] =
      run_adversarial_scenario(sim::FeedbackModel::noisy(0.2), {});
  EXPECT_EQ(tx, "__xx_M");
  EXPECT_EQ(listen, "__xx_Mx_");
}

TEST(AdversarialPerception, NoisyEpsCrashyPinned) {
  const auto [tx, listen] =
      run_adversarial_scenario(sim::FeedbackModel::noisy(0.2), crashy_plan());
  EXPECT_EQ(tx, "__xx_M");
  EXPECT_EQ(listen, "__x_M");
}

// ---------------------------------------------------------------------------
// Step digest: every decision and every inspected value, slot by slot
// ---------------------------------------------------------------------------

// Drives one protocol object per job through its whole window under seeded
// random feedback, the way the engine calls it (a sleeper hears silence),
// and hashes every decision, the bits of each declared probability and
// every inspection hook. The golden digests hash run results; this digest
// keeps a change of NOCD's layout or arithmetic from moving any of them.
TEST(Nocd, PinnedStepDigest) {
  core::Params wide = nocd_params();
  core::Params tight = nocd_params();
  tight.lambda = 7;
  tight.max_tx_prob = 0.25;
  tight.nocd_epoch_len = 3;
  tight.nocd_dry_sweep_limit = 1;
  std::uint64_t h = 0x4E4F4344ULL;  // "NOCD"
  int floor_slots = 0;
  int swept_slots = 0;
  int done_jobs = 0;
  for (const core::Params& params : {wide, tight}) {
    for (const bool robust : {false, true}) {
      for (const auto& model : {sim::FeedbackModel::ternary(),
                                sim::FeedbackModel::binary_ack()}) {
        util::Rng heard(0xFEEDULL + static_cast<std::uint64_t>(robust));
        for (const Slot window : {1, 2, 3, 4, 5, 7, 8, 16, 61, 256, 1000,
                                  4096}) {
          // Listener success rates: a silent channel, a sparse and a busy
          // one.
          for (const double success_rate : {0.0, 0.02, 0.3}) {
            sim::JobInfo info;
            info.id = static_cast<JobId>(window);
            info.release = 11 * window;
            info.deadline = info.release + window;
            info.caps = model.caps();
            core::nocd::NocdProtocol p(
                params, robust,
                util::Rng(0x5EEDULL + static_cast<std::uint64_t>(window)));
            p.on_activate(info);
            h = tests::mix(h, static_cast<std::uint64_t>(p.max_exponent()));
            for (Slot s = 0; s < window; ++s) {
              const sim::SlotView view{s, info.release + s};
              const sim::SlotAction action = p.on_slot(view);
              h = tests::mix(h, action.transmit ? 1 : 0);
              h = tests::mix(h, action.sleep ? 1 : 0);
              h = tests::mix_double(h, action.declared_prob);
              const double base = std::min(
                  std::exp2(-p.density_exponent()), params.max_tx_prob);
              floor_slots += action.declared_prob > base ? 1 : 0;
              sim::SlotFeedback fb;
              const double draw = heard.next_double();
              if (action.transmit) {
                fb.outcome = draw < 0.2 ? sim::SlotOutcome::kSuccess
                                        : sim::SlotOutcome::kNoise;
              } else if (!action.sleep) {
                fb.outcome = draw < success_rate ? sim::SlotOutcome::kSuccess
                             : draw < 0.6        ? sim::SlotOutcome::kNoise
                                                 : sim::SlotOutcome::kSilence;
              }
              p.on_feedback(view, fb);
              h = tests::mix(h, static_cast<std::uint64_t>(
                                    p.density_exponent()));
              h = tests::mix(h, static_cast<std::uint64_t>(p.drained()));
              h = tests::mix(h, static_cast<std::uint64_t>(p.dry_sweeps()));
              swept_slots += p.dry_sweeps() > 0 ? 1 : 0;
              const bool done = p.done();
              h = tests::mix(h, done ? 1 : 0);
              if (done) {
                ++done_jobs;
                break;  // the engine retires the job here
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(floor_slots, 0);
  EXPECT_GT(swept_slots, 0);
  EXPECT_GT(done_jobs, 0);
  EXPECT_EQ(h, 0x61f176bceffc3913ULL) << "digest 0x" << std::hex << h;
}

// ---------------------------------------------------------------------------
// Registry integration
// ---------------------------------------------------------------------------

TEST(NocdRegistry, FactoryRunsUnderEveryModelItAdvertises) {
  core::Params params = nocd_params();
  for (const char* name : {"nocd", "nocd_robust"}) {
    const auto info = core::protocol_info(name);
    ASSERT_TRUE(info.has_value()) << name;
    const auto factory = core::make_protocol(name, params);
    ASSERT_TRUE(factory.has_value()) << name;
    for (const auto& model : {sim::FeedbackModel::ternary(),
                              sim::FeedbackModel::binary_ack(),
                              sim::FeedbackModel::collision_as_silence(),
                              sim::FeedbackModel::noisy(0.1)}) {
      ASSERT_TRUE(info->supports(model.caps())) << name << " " << model.spec();
      sim::SimConfig config;
      config.seed = 5;
      config.feedback = model;
      const auto r =
          sim::run(workload::gen_batch(8, 32, 0), *factory, config);
      EXPECT_EQ(r.jobs.size(), 8u) << name << " " << model.spec();
    }
  }
}

}  // namespace
}  // namespace crmd
