// Unit tests for PUNCTUAL's building blocks: round layout, clocks, the
// derived parameter formulas, and the slot role on_slot hands on to the
// feedback of its slot.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <utility>

#include "core/params.hpp"
#include "core/punctual/clock.hpp"
#include "core/punctual/protocol.hpp"
#include "core/punctual/round.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace crmd::core::punctual {
namespace {

TEST(Round, LayoutMatchesSpec) {
  // S S g T g A g L g N g
  EXPECT_EQ(slot_type(0), SlotType::kSync);
  EXPECT_EQ(slot_type(1), SlotType::kSync);
  EXPECT_EQ(slot_type(2), SlotType::kGuard);
  EXPECT_EQ(slot_type(3), SlotType::kTimekeeper);
  EXPECT_EQ(slot_type(4), SlotType::kGuard);
  EXPECT_EQ(slot_type(5), SlotType::kAligned);
  EXPECT_EQ(slot_type(6), SlotType::kGuard);
  EXPECT_EQ(slot_type(7), SlotType::kLeaderElection);
  EXPECT_EQ(slot_type(8), SlotType::kGuard);
  EXPECT_EQ(slot_type(9), SlotType::kAnarchy);
  EXPECT_EQ(slot_type(10), SlotType::kGuard);
}

TEST(Round, EveryUsefulSlotIsGuarded) {
  // No two non-guard slots are adjacent, including across the round wrap —
  // the invariant that makes two-consecutive-busy mean "round start".
  for (std::int64_t off = 2; off < kRoundLength; ++off) {
    const std::int64_t next = (off + 1) % kRoundLength;
    const bool here_busyable = slot_type(off) != SlotType::kGuard;
    const bool next_busyable =
        slot_type(next) != SlotType::kGuard && next != 0 && next != 1;
    EXPECT_FALSE(here_busyable && next_busyable) << "offset " << off;
  }
  // The wrap: anarchy (9) -> guard (10) -> sync (0). Offset 10 must be a
  // guard for the invariant to hold.
  EXPECT_EQ(slot_type(kRoundLength - 1), SlotType::kGuard);
}

TEST(Round, TypeNames) {
  EXPECT_STREQ(to_string(SlotType::kSync), "sync");
  EXPECT_STREQ(to_string(SlotType::kGuard), "guard");
  EXPECT_STREQ(to_string(SlotType::kTimekeeper), "timekeeper");
  EXPECT_STREQ(to_string(SlotType::kAligned), "aligned");
  EXPECT_STREQ(to_string(SlotType::kLeaderElection), "leader-election");
  EXPECT_STREQ(to_string(SlotType::kAnarchy), "anarchy");
}

TEST(RoundClock, OffsetsAndRounds) {
  RoundClock clock;
  EXPECT_FALSE(clock.synced());
  clock.sync(5);
  EXPECT_TRUE(clock.synced());
  EXPECT_EQ(clock.offset(5), 0);
  EXPECT_EQ(clock.offset(5 + 3), 3);
  EXPECT_EQ(clock.offset(5 + kRoundLength), 0);
  EXPECT_EQ(clock.local_round(5), 0);
  EXPECT_EQ(clock.local_round(5 + kRoundLength - 1), 0);
  EXPECT_EQ(clock.local_round(5 + kRoundLength), 1);
  EXPECT_EQ(clock.local_round(5 + 5 * kRoundLength + 7), 5);
}

TEST(RoundClock, LeaderFrameTranslation) {
  RoundClock clock;
  clock.sync(0);
  EXPECT_FALSE(clock.frame_known());
  // Heard "time = 100" in local round 2.
  clock.set_frame(100, 2 * kRoundLength + 3);
  ASSERT_TRUE(clock.frame_known());
  EXPECT_EQ(clock.leader_round(2 * kRoundLength + 3), 100);
  EXPECT_EQ(clock.leader_round(3 * kRoundLength), 101);
  EXPECT_TRUE(clock.frame_matches(101, 3 * kRoundLength + 5));
  EXPECT_FALSE(clock.frame_matches(150, 3 * kRoundLength + 5));
  clock.clear_frame();
  EXPECT_FALSE(clock.frame_known());
}

TEST(RoundClock, TwoObserversOfSameBroadcastAgree) {
  // Jobs synced at different anchors (same grid) hearing the same heartbeat
  // compute identical leader rounds for every later slot. Anchors differ by
  // a multiple of kRoundLength in *global* time; here job B released 2
  // rounds after job A.
  RoundClock a;
  RoundClock b;
  a.sync(0);                       // A's local slot 0 == global slot 0
  b.sync(0);                       // B's local slot 0 == global slot 22
  const Slot heard_global = 4 * kRoundLength + 3;
  a.set_frame(77, heard_global);
  b.set_frame(77, heard_global - 2 * kRoundLength);
  for (int r = 0; r < 5; ++r) {
    const Slot g = heard_global + r * kRoundLength;
    EXPECT_EQ(a.leader_round(g), b.leader_round(g - 2 * kRoundLength));
  }
}

// ------------------------------------------------------- params formulas ---

TEST(Params, EstimationFormulas) {
  Params p;
  p.lambda = 3;
  EXPECT_EQ(p.estimation_steps(5), 75);
  EXPECT_EQ(p.estimation_phase_len(5), 15);
}

TEST(Params, PullbackProbMatchesPaperShape) {
  Params p;
  p.pullback_prob_log_exp = 3.0;
  const Slot w = 1 << 12;  // log2 w = 12
  const double expect = 1.0 / (static_cast<double>(w) * 12.0 * 12.0 * 12.0);
  EXPECT_NEAR(p.pullback_tx_prob(w), expect, 1e-12);
}

TEST(Params, PullbackLenIsCappedByWindowFraction) {
  Params p;
  p.lambda = 2;
  p.pullback_len_log_exp = 7.0;   // λ·12^7 would be astronomical
  p.pullback_window_frac = 0.25;
  const Slot w = 1 << 12;
  const std::int64_t expect_cap =
      static_cast<std::int64_t>(0.25 * static_cast<double>(w) / kRoundLength);
  EXPECT_EQ(p.pullback_elections(w), expect_cap);

  // With a tame exponent the uncapped value wins.
  p.pullback_len_log_exp = 1.0;
  EXPECT_EQ(p.pullback_elections(w), 24);  // λ·log2(w) = 2·12
}

TEST(Params, AnarchistProbShape) {
  Params p;
  p.lambda = 2;
  p.anarchist_log_exp = 1.0;
  const Slot w = 1 << 10;
  EXPECT_NEAR(p.anarchist_tx_prob(w), 2.0 * 10.0 / 1024.0, 1e-12);
  // Tiny windows cap at max_tx_prob.
  EXPECT_DOUBLE_EQ(p.anarchist_tx_prob(4), p.max_tx_prob);
}

TEST(Params, ValidateCatchesBadValues) {
  Params p;
  EXPECT_NO_THROW(p.validate());
  p.lambda = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params{};
  p.tau = 48;  // not a power of two
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params{};
  p.max_tx_prob = 0.9;  // violates Lemma 2's hypothesis
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params{};
  p.pullback_window_frac = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params{};
  p.min_class = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  // NaN fails every floating-point range check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double Params::*field :
       {&Params::max_tx_prob, &Params::pullback_prob_log_exp,
        &Params::pullback_prob_scale, &Params::pullback_len_log_exp,
        &Params::pullback_window_frac, &Params::anarchist_log_exp,
        &Params::energy_spread_frac}) {
    p = Params{};
    p.*field = nan;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

TEST(Params, BroadcastStepsConventions) {
  Params p;
  p.lambda = 2;
  EXPECT_EQ(p.broadcast_steps(6, 0), 0) << "believed-empty class";
  EXPECT_EQ(p.broadcast_steps(6, 1), 2 * 36) << "equal phases only";
  EXPECT_EQ(p.broadcast_steps(6, 8), 2 * (2 * 8 - 2) + 2 * 36);
}

// ------------------------------------------------ slot role reuse -------

/// What SlotTypeProbe saw, by path.
struct SlotTypeTally {
  std::int64_t checks = 0;
  std::int64_t mismatches = 0;
  std::int64_t synced_by_listening = 0;  ///< checks of jobs that heard a pair
  std::int64_t synced_by_announcing = 0;  ///< checks of jobs that announced
  std::int64_t skewed = 0;  ///< checks after the job's clock slipped
  std::int64_t desync_fallbacks = 0;  ///< fallbacks within a checked slot
};

[[nodiscard]] bool on_round_grid(PunctualProtocol::Stage stage) {
  using Stage = PunctualProtocol::Stage;
  switch (stage) {
    case Stage::kSyncListen:
    case Stage::kSyncAnnounce:
    case Stage::kDesperate:
    case Stage::kSucceeded:
    case Stage::kGaveUp:
      return false;
    default:
      return true;
  }
}

/// Drives one PUNCTUAL job and, before each feedback its on_feedback hands
/// to handle_synced_feedback (a stage on the round grid), checks that the
/// role on_slot cached is the one the job's clock gives for that slot —
/// what the feedback computed itself before it reused the cached role.
class SlotTypeProbe final : public sim::Protocol {
 public:
  SlotTypeProbe(const Params& params, util::Rng rng, SlotTypeTally* tally)
      : inner_(params, std::move(rng)), tally_(tally) {}

  void on_activate(const sim::JobInfo& info) override {
    inner_.on_activate(info);
  }

  sim::SlotAction on_slot(const sim::SlotView& view) override {
    announced_ = announced_ ||
                 inner_.stage() == PunctualProtocol::Stage::kSyncAnnounce;
    // Without crashes or stalls a job ticks every slot, so a step of more
    // than one in the slots it sees is clock skew slipping them ahead.
    slipped_ = slipped_ || view.since_release > last_seen_ + 1;
    last_seen_ = view.since_release;
    return inner_.on_slot(view);
  }

  void on_feedback(const sim::SlotView& view,
                   const sim::SlotFeedback& fb) override {
    const bool checked = on_round_grid(inner_.stage());
    if (checked) {
      ++tally_->checks;
      if (inner_.slot_type() != inner_.clock().type(view.since_release)) {
        ++tally_->mismatches;
      }
      ++(announced_ ? tally_->synced_by_announcing
                    : tally_->synced_by_listening);
      if (slipped_) {
        ++tally_->skewed;
      }
    }
    const bool fell_back = inner_.desync_fallback();
    inner_.on_feedback(view, fb);
    if (checked && !fell_back && inner_.desync_fallback()) {
      ++tally_->desync_fallbacks;
    }
  }

  [[nodiscard]] bool done() const override { return inner_.done(); }

 private:
  PunctualProtocol inner_;
  SlotTypeTally* tally_;
  Slot last_seen_ = -1;
  bool announced_ = false;
  bool slipped_ = false;
};

SlotTypeTally probe_slot_types(const Params& params,
                               const sim::FaultPlan& faults) {
  workload::GeneralConfig general;
  general.gamma = 1.0 / 32;
  general.fill = 0.5;
  general.horizon = 1 << 14;
  util::Rng rng(3);
  const workload::Instance instance = workload::gen_general(general, rng);
  SlotTypeTally tally;
  sim::SimConfig config;
  config.seed = 11;
  config.faults = faults;
  (void)sim::run(instance,
                 [&](const sim::JobInfo& /*info*/, util::Rng job_rng) {
                   return std::make_unique<SlotTypeProbe>(
                       params, std::move(job_rng), &tally);
                 },
                 config);
  return tally;
}

TEST(SlotTypeReuse, FeedbackReadsTheRoleOnSlotFound) {
  const Params params;
  // Fault-free: the first job announces a frame, later ones hear its pairs.
  const SlotTypeTally clean = probe_slot_types(params, sim::FaultPlan{});
  EXPECT_EQ(clean.mismatches, 0);
  EXPECT_GT(clean.synced_by_listening, 0);
  EXPECT_GT(clean.synced_by_announcing, 0);

  // Clock skew shifts the slots a job sees, on_slot and feedback alike.
  sim::FaultPlan skew;
  skew.clock_skew_rate = 0.01;
  const SlotTypeTally skewed = probe_slot_types(params, skew);
  EXPECT_EQ(skewed.mismatches, 0);
  EXPECT_GT(skewed.skewed, 0);

  // Lost and corrupted feedback drives jobs off the grid (desync fallback),
  // from the guard-slot check that reads the reused role among others.
  Params tolerant = params;
  tolerant.desync_tolerance = 2;
  sim::FaultPlan lossy;
  lossy.feedback_loss_rate = 0.05;
  lossy.feedback_corrupt_rate = 0.05;
  const SlotTypeTally desync = probe_slot_types(tolerant, lossy);
  EXPECT_EQ(desync.mismatches, 0);
  EXPECT_GT(desync.desync_fallbacks, 0);
}

}  // namespace
}  // namespace crmd::core::punctual
