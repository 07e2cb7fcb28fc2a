// Tests for the model-variant features: the no-collision-detection channel
// mode and the Poisson sustained-load generator.

#include <gtest/gtest.h>

#include "core/aligned/protocol.hpp"
#include "core/punctual/protocol.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace crmd {
namespace {

// A listener protocol that records the outcomes it perceives.
class ListenerProtocol final : public sim::Protocol {
 public:
  explicit ListenerProtocol(std::shared_ptr<std::vector<sim::SlotOutcome>> log)
      : log_(std::move(log)) {}
  void on_activate(const sim::JobInfo&) override {}
  sim::SlotAction on_slot(const sim::SlotView&) override { return {}; }
  void on_feedback(const sim::SlotView&,
                   const sim::SlotFeedback& fb) override {
    log_->push_back(fb.outcome);
  }
  bool done() const override { return false; }

 private:
  std::shared_ptr<std::vector<sim::SlotOutcome>> log_;
};

TEST(NoCollisionDetection, ListenersPerceiveNoiseAsSilence) {
  auto log = std::make_shared<std::vector<sim::SlotOutcome>>();
  workload::Instance instance;
  instance.jobs = {{0, 4}, {0, 4}, {0, 4}};  // two colliders + one listener
  const sim::ProtocolFactory factory = [&](const sim::JobInfo& info,
                                           util::Rng) {
    if (info.id == 2) {
      return std::unique_ptr<sim::Protocol>(
          std::make_unique<ListenerProtocol>(log));
    }
    return std::unique_ptr<sim::Protocol>(
        std::make_unique<test::ScriptProtocol>(std::vector<Slot>{1}));
  };

  sim::SimConfig no_cd;
  no_cd.feedback = sim::FeedbackModel::unaware_no_cd();
  const auto result = sim::run(instance, factory, no_cd);
  // The collision happened on the channel (metrics see it)...
  EXPECT_EQ(result.metrics.noise_slots, 1);
  // ...but the listener perceived silence.
  ASSERT_GE(log->size(), 2u);
  EXPECT_EQ((*log)[1], sim::SlotOutcome::kSilence);

  log->clear();
  sim::SimConfig with_cd;  // default: CD on
  const auto result2 = sim::run(instance, factory, with_cd);
  EXPECT_EQ(result2.metrics.noise_slots, 1);
  EXPECT_EQ((*log)[1], sim::SlotOutcome::kNoise);
}

TEST(NoCollisionDetection, TransmittersStillLearnFailure) {
  // Both jobs collide at offset 1; each transmitted, so each must see the
  // noise (ACK-style failure) even without CD — otherwise BEB-style
  // protocols could never back off.
  workload::Instance instance;
  instance.jobs = {{0, 64}, {0, 64}};
  sim::SimConfig no_cd;
  no_cd.feedback = sim::FeedbackModel::unaware_no_cd();
  // ScriptProtocol succeeds only when it transmits alone; if a transmitter
  // wrongly perceived silence it would never record done and the test
  // would show both failing despite disjoint retries. Use per-job scripts
  // with a shared first attempt and disjoint retries.
  const auto result = sim::run(
      instance, test::per_job_script_factory({{1, 5}, {1, 9}}), no_cd);
  EXPECT_EQ(result.successes(), 2);
}

TEST(NoCollisionDetection, AlignedUnaffected) {
  core::Params p;
  p.lambda = 2;
  p.tau = 4;
  p.min_class = 11;
  sim::SimConfig no_cd;
  no_cd.seed = 3;
  no_cd.feedback = sim::FeedbackModel::unaware_no_cd();
  const auto result =
      sim::run(workload::gen_batch(12, 1 << 11, 0),
               core::aligned::make_aligned_factory(p), no_cd);
  EXPECT_EQ(result.successes(), 12)
      << "ALIGNED's bookkeeping counts successes only";
}

// What a run's channel did, pinned field by field.
struct PinnedRun {
  std::int64_t successes;
  std::int64_t success_slots;
  std::int64_t noise_slots;
  std::int64_t silent_slots;
  std::int64_t slots_simulated;
};

void expect_pinned(const sim::SimResult& result, const PinnedRun& pin) {
  EXPECT_EQ(result.successes(), pin.successes);
  EXPECT_EQ(result.metrics.success_slots, pin.success_slots);
  EXPECT_EQ(result.metrics.noise_slots, pin.noise_slots);
  EXPECT_EQ(result.metrics.silent_slots, pin.silent_slots);
  EXPECT_EQ(result.metrics.slots_simulated, pin.slots_simulated);
}

// E17's ALIGNED and PUNCTUAL configurations (bench_model_assumptions, rep 0
// at its default seed 1) with listeners hearing noise as silence. The
// values were captured from the engine before the ablation became a
// feedback kind; they must never move.
TEST(NoCollisionDetection, PinnedE17Runs) {
  const std::uint64_t seed = 1;
  {
    core::Params p;
    p.lambda = 2;
    p.tau = 8;
    p.min_class = 10;
    util::Rng rng(seed);
    workload::AlignedConfig config;
    config.min_class = 10;
    config.max_class = 13;
    config.gamma = 1.0 / 256;
    config.horizon = 1 << 15;
    sim::SimConfig sc;
    sc.seed = seed * 7;
    sc.feedback = sim::FeedbackModel::unaware_no_cd();
    const auto result =
        sim::run(workload::gen_aligned(config, rng),
                 core::aligned::make_aligned_factory(p), sc);
    expect_pinned(result, {123, 1573, 526, 23187, 25286});
  }
  {
    core::Params p;
    p.lambda = 4;
    p.tau = 8;
    p.min_class = 8;
    util::Rng rng(seed + 100);
    workload::GeneralConfig config;
    config.min_window = 1 << 11;
    config.max_window = 1 << 13;
    config.gamma = 1.0 / 64;
    config.horizon = 1 << 15;
    sim::SimConfig sc;
    sc.seed = seed * 11;
    sc.feedback = sim::FeedbackModel::unaware_no_cd();
    const auto result =
        sim::run(workload::gen_general(config, rng),
                 core::punctual::make_punctual_factory(p), sc);
    expect_pinned(result, {0, 379, 32068, 286, 32733});
  }
}

TEST(GenPoisson, CountsScaleWithRate) {
  util::Rng rng(42);
  const auto sparse = workload::gen_poisson(0.01, 256, 1 << 14, rng);
  const auto dense = workload::gen_poisson(0.2, 256, 1 << 14, rng);
  // Expected ~161 vs ~3225.
  EXPECT_GT(sparse.size(), 80u);
  EXPECT_LT(sparse.size(), 320u);
  EXPECT_GT(dense.size(), 2500u);
  EXPECT_LT(dense.size(), 4000u);
}

TEST(GenPoisson, JobsRespectWindowAndHorizon) {
  util::Rng rng(7);
  const auto inst = workload::gen_poisson(0.05, 512, 1 << 13, rng);
  EXPECT_TRUE(inst.valid());
  for (const auto& j : inst.jobs) {
    EXPECT_EQ(j.window(), 512);
    EXPECT_GE(j.release, 0);
    EXPECT_LE(j.deadline, 1 << 13);
  }
}

TEST(GenPoisson, ZeroRateIsEmpty) {
  util::Rng rng(9);
  EXPECT_TRUE(workload::gen_poisson(0.0, 64, 1024, rng).empty());
}

TEST(GenPoisson, LargeMeanDoesNotHang) {
  // Exercises the std::poisson_distribution branch (Knuth would underflow).
  util::Rng rng(11);
  const auto inst = workload::gen_poisson(0.5, 64, 1 << 14, rng);
  EXPECT_GT(inst.size(), 6000u);
  EXPECT_LT(inst.size(), 10000u);
}

}  // namespace
}  // namespace crmd
