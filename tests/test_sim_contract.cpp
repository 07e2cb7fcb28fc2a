// Contract tests for the simulator's interaction with protocols: call
// ordering, no callbacks after retirement, horizon defaults, arrival edge
// cases, and which runs hand protocols a shared RunState.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace crmd::sim {
namespace {

/// Records every callback for post-hoc contract checks.
class AuditProtocol final : public Protocol {
 public:
  struct Log {
    int activations = 0;
    std::int64_t on_slots = 0;
    std::int64_t on_feedbacks = 0;
    bool called_after_done = false;
    Slot first_slot = kNoSlot;
    Slot last_slot = kNoSlot;
  };

  AuditProtocol(std::shared_ptr<Log> log, Slot succeed_at)
      : log_(std::move(log)), succeed_at_(succeed_at) {}

  void on_activate(const JobInfo& info) override {
    info_ = info;
    ++log_->activations;
  }

  SlotAction on_slot(const SlotView& view) override {
    if (done_) {
      log_->called_after_done = true;
    }
    ++log_->on_slots;
    if (log_->first_slot == kNoSlot) {
      log_->first_slot = view.since_release;
    }
    log_->last_slot = view.since_release;
    SlotAction action;
    if (view.since_release == succeed_at_) {
      action.transmit = true;
      action.message = make_data(info_.id);
      tx_ = true;
    }
    return action;
  }

  void on_feedback(const SlotView&, const SlotFeedback& fb) override {
    ++log_->on_feedbacks;
    if (tx_ && fb.outcome == SlotOutcome::kSuccess) {
      done_ = true;
    }
    tx_ = false;
  }

  bool done() const override { return done_; }

 private:
  std::shared_ptr<Log> log_;
  Slot succeed_at_;
  JobInfo info_;
  bool tx_ = false;
  bool done_ = false;
};

TEST(SimContract, CallbackOrderingAndCounts) {
  auto log = std::make_shared<AuditProtocol::Log>();
  workload::Instance instance;
  instance.jobs = {{5, 25}};
  const ProtocolFactory factory = [&](const JobInfo&, util::Rng) {
    return std::make_unique<AuditProtocol>(log, 3);
  };
  const auto result = run(instance, factory, SimConfig{});
  EXPECT_EQ(log->activations, 1);
  // Slots 0..3 since release, then retirement on success.
  EXPECT_EQ(log->on_slots, 4);
  EXPECT_EQ(log->on_feedbacks, 4);
  EXPECT_EQ(log->first_slot, 0);
  EXPECT_EQ(log->last_slot, 3);
  EXPECT_FALSE(log->called_after_done);
  EXPECT_TRUE(result.jobs[0].success);
  EXPECT_EQ(result.jobs[0].success_slot, 8);  // release 5 + offset 3
}

TEST(SimContract, NoCallbacksAfterDeadline) {
  auto log = std::make_shared<AuditProtocol::Log>();
  workload::Instance instance;
  instance.jobs = {{0, 10}};
  const ProtocolFactory factory = [&](const JobInfo&, util::Rng) {
    return std::make_unique<AuditProtocol>(log, 50);  // never succeeds
  };
  // Another job keeps the simulation alive past the first's deadline.
  instance.jobs.push_back(workload::JobSpec{0, 100});
  const ProtocolFactory both = [&](const JobInfo& info, util::Rng rng) {
    if (info.id == 0) {
      return std::unique_ptr<Protocol>(
          std::make_unique<AuditProtocol>(log, 50));
    }
    return std::unique_ptr<Protocol>(
        std::make_unique<test::ScriptProtocol>(std::vector<Slot>{99}));
  };
  const auto result = run(instance, both, SimConfig{});
  EXPECT_EQ(log->on_slots, 10) << "window [0,10) has exactly 10 slots";
  EXPECT_EQ(log->last_slot, 9);
  EXPECT_FALSE(result.jobs[0].success);
  EXPECT_TRUE(result.jobs[1].success);
}

TEST(SimContract, HorizonDefaultsToMaxDeadline) {
  workload::Instance instance;
  instance.jobs = {{0, 10}, {20, 37}};
  Simulation sim(instance, test::script_factory({1000}), SimConfig{});
  const auto result = sim.finish();
  // Nothing succeeds (attempt offset beyond windows); the run still ends
  // by the max deadline.
  EXPECT_EQ(result.successes(), 0);
  EXPECT_LE(sim.now(), 37);
}

TEST(SimContract, ZeroLengthWindowNeverActivates) {
  workload::Instance instance;
  instance.jobs = {{0, 10}};
  // A degenerate job whose window closed before the horizon even starts
  // would violate valid(); the simulator asserts validity, so only test
  // the supported boundary: a 1-slot window activates for exactly 1 slot.
  instance.jobs.push_back(workload::JobSpec{3, 4});
  auto log = std::make_shared<AuditProtocol::Log>();
  const ProtocolFactory factory = [&](const JobInfo& info, util::Rng) {
    if (info.id == 1) {
      return std::unique_ptr<Protocol>(
          std::make_unique<AuditProtocol>(log, 0));
    }
    return std::unique_ptr<Protocol>(
        std::make_unique<test::ScriptProtocol>(std::vector<Slot>{8}));
  };
  const auto result = run(instance, factory, SimConfig{});
  EXPECT_EQ(log->on_slots, 1);
  EXPECT_TRUE(result.jobs[1].success);
}

TEST(SimContract, ManySimultaneousArrivalsAllActivate) {
  workload::Instance instance;
  for (int i = 0; i < 300; ++i) {
    instance.jobs.push_back(workload::JobSpec{7, 7 + 512});
  }
  Simulation sim(instance, test::script_factory({10000}), SimConfig{});
  sim.step();
  EXPECT_EQ(sim.live_jobs().size(), 300u);
  sim.finish();
}

TEST(SimContract, SeedChangesOutcomesForRandomProtocols) {
  // Different seeds must give protocols different randomness (child
  // streams derive from the config seed).
  const auto instance = workload::Instance{{{{0, 512}, {0, 512}}}};
  const ProtocolFactory factory = [](const JobInfo& info, util::Rng rng) {
    class P final : public Protocol {
     public:
      explicit P(util::Rng r) : rng_(r) {}
      void on_activate(const JobInfo& i) override { info_ = i; }
      SlotAction on_slot(const SlotView&) override {
        SlotAction a;
        tx_ = rng_.bernoulli(0.1);
        if (tx_) {
          a.transmit = true;
          a.message = make_data(info_.id);
        }
        return a;
      }
      void on_feedback(const SlotView&, const SlotFeedback& fb) override {
        if (tx_ && fb.outcome == SlotOutcome::kSuccess) {
          done_ = true;
        }
      }
      bool done() const override { return done_; }

     private:
      util::Rng rng_;
      JobInfo info_;
      bool tx_ = false;
      bool done_ = false;
    };
    (void)info;
    return std::make_unique<P>(rng);
  };
  SimConfig a;
  a.seed = 1;
  SimConfig b;
  b.seed = 2;
  const auto ra = run(instance, factory, a);
  const auto rb = run(instance, factory, b);
  EXPECT_TRUE(ra.jobs[0].success_slot != rb.jobs[0].success_slot ||
              ra.jobs[1].success_slot != rb.jobs[1].success_slot);
}

/// Records the RunState each job is handed at activation, then listens
/// until its deadline.
class RunStateProbe final : public Protocol {
 public:
  explicit RunStateProbe(std::vector<RunState*>* seen) : seen_(seen) {}
  void on_activate(const JobInfo& info) override {
    seen_->push_back(info.run);
  }
  SlotAction on_slot(const SlotView& /*view*/) override { return {}; }
  void on_feedback(const SlotView& /*view*/,
                   const SlotFeedback& /*fb*/) override {}
  [[nodiscard]] bool done() const override { return false; }

 private:
  std::vector<RunState*>* seen_;
};

/// A decorator that forwards every call, as perfbench's do.
class Forwarding final : public Protocol {
 public:
  explicit Forwarding(std::unique_ptr<Protocol> inner)
      : inner_(std::move(inner)) {}
  void on_activate(const JobInfo& info) override { inner_->on_activate(info); }
  SlotAction on_slot(const SlotView& view) override {
    return inner_->on_slot(view);
  }
  void on_feedback(const SlotView& view, const SlotFeedback& fb) override {
    inner_->on_feedback(view, fb);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }

 private:
  std::unique_ptr<Protocol> inner_;
};

/// The RunState every job of one run saw, null when none had one; fails
/// the test when the jobs of the run saw different ones.
RunState* run_state_of(SimConfig config, bool wrapped = false) {
  std::vector<RunState*> seen;
  const ProtocolFactory factory = [&](const JobInfo& /*info*/,
                                      util::Rng /*rng*/) {
    std::unique_ptr<Protocol> probe = std::make_unique<RunStateProbe>(&seen);
    if (wrapped) {
      return std::unique_ptr<Protocol>(
          std::make_unique<Forwarding>(std::move(probe)));
    }
    return probe;
  };
  (void)run(test::instance_of({{0, 16}, {0, 32}, {8, 24}}), factory, config);
  EXPECT_EQ(seen.size(), 3U);
  for (RunState* run : seen) {
    EXPECT_EQ(run, seen.front()) << "jobs of one run saw different states";
  }
  return seen.empty() ? nullptr : seen.front();
}

SimConfig with_feedback(const std::string& spec) {
  SimConfig config;
  config.feedback = *parse_feedback_model(spec);
  return config;
}

TEST(SimContract, RunStateOnlyWhereEveryJobHearsTheSameFeedback) {
  for (const char* spec :
       {"ternary", "collision_as_silence", "noisy:0.1", "capture:0"}) {
    SimConfig config = with_feedback(spec);
    EXPECT_TRUE(config.common_view()) << spec;
    EXPECT_NE(run_state_of(config), nullptr) << spec;
    config.collision_cost = 3;
    EXPECT_NE(run_state_of(config), nullptr) << spec << ", cost 3";
  }
  // Views that differ between listeners and transmitters, or per job.
  for (const char* spec : {"capture:0.5", "unaware_no_cd", "binary_ack"}) {
    const SimConfig config = with_feedback(spec);
    EXPECT_FALSE(config.common_view()) << spec;
    EXPECT_EQ(run_state_of(config), nullptr) << spec;
  }
  SimConfig faulted;
  faulted.faults.feedback_loss_rate = 0.01;
  EXPECT_FALSE(faulted.common_view());
  EXPECT_EQ(run_state_of(faulted), nullptr);
  SimConfig fdma;
  fdma.multichannel.channels = 4;
  EXPECT_FALSE(fdma.common_view());
  EXPECT_EQ(run_state_of(fdma), nullptr);
}

TEST(SimContract, RunStateReachesWrappedProtocolsAndIsOnePerRun) {
  EXPECT_NE(run_state_of(SimConfig{}, /*wrapped=*/true), nullptr);
  // Two runs alive at once hold two states.
  std::vector<RunState*> seen;
  const ProtocolFactory factory = [&](const JobInfo& /*info*/,
                                      util::Rng /*rng*/) {
    return std::make_unique<RunStateProbe>(&seen);
  };
  Simulation a(test::instance_of({{0, 8}}), factory, SimConfig{});
  Simulation b(test::instance_of({{0, 8}}), factory, SimConfig{});
  ASSERT_TRUE(a.step());
  ASSERT_TRUE(b.step());
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_NE(seen[0], nullptr);
  EXPECT_NE(seen[1], nullptr);
  EXPECT_NE(seen[0], seen[1]);
}

}  // namespace
}  // namespace crmd::sim
