#pragma once

// Shared helpers for the crmd test suite: a scriptable protocol for driving
// the simulator deterministically, small instance builders, a run that
// records its slots and faults, and an event-stream comparison.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/protocol.hpp"
#include "sim/simulator.hpp"
#include "workload/instance.hpp"

namespace crmd::test {

/// A protocol that transmits its data message at a fixed list of offsets
/// (slots since release) and otherwise listens. Never gives up on its own.
class ScriptProtocol final : public sim::Protocol {
 public:
  explicit ScriptProtocol(std::vector<Slot> offsets)
      : offsets_(std::move(offsets)) {}

  void on_activate(const sim::JobInfo& info) override { info_ = info; }

  sim::SlotAction on_slot(const sim::SlotView& view) override {
    sim::SlotAction action;
    transmitted_ = false;
    for (const Slot o : offsets_) {
      if (o == view.since_release) {
        action.transmit = true;
        action.message = sim::make_data(info_.id);
        action.declared_prob = 1.0;
        transmitted_ = true;
        break;
      }
    }
    return action;
  }

  void on_feedback(const sim::SlotView& /*view*/,
                   const sim::SlotFeedback& fb) override {
    if (transmitted_ && fb.outcome == sim::SlotOutcome::kSuccess) {
      succeeded_ = true;
    }
    ++feedbacks_;
  }

  [[nodiscard]] bool done() const override { return succeeded_; }

  [[nodiscard]] int feedbacks() const noexcept { return feedbacks_; }

 private:
  std::vector<Slot> offsets_;
  sim::JobInfo info_;
  bool transmitted_ = false;
  bool succeeded_ = false;
  int feedbacks_ = 0;
};

/// Factory where every job transmits at the same offsets-since-release.
inline sim::ProtocolFactory script_factory(std::vector<Slot> offsets) {
  return [offsets](const sim::JobInfo& /*info*/, util::Rng /*rng*/) {
    return std::make_unique<ScriptProtocol>(offsets);
  };
}

/// Factory scripting each job separately: scripts[i] holds job i's offsets.
inline sim::ProtocolFactory per_job_script_factory(
    std::vector<std::vector<Slot>> scripts) {
  return [scripts](const sim::JobInfo& info, util::Rng /*rng*/) {
    return std::make_unique<ScriptProtocol>(scripts.at(info.id));
  };
}

/// Builds an instance from (release, deadline) pairs.
inline workload::Instance instance_of(
    std::initializer_list<std::pair<Slot, Slot>> jobs) {
  workload::Instance out;
  for (const auto& [r, d] : jobs) {
    out.jobs.push_back(workload::JobSpec{r, d});
  }
  return out;
}

/// A finished run with its per-slot and per-fault records.
struct RecordedRun {
  sim::SimResult result;
  std::vector<sim::SlotRecord> slots;   ///< one per channel-slot, in order
  std::vector<obs::TraceEvent> faults;  ///< the kFault events, in order

  /// (slot, FaultKind, job) of each fault, in order: the fault CSV's rows.
  [[nodiscard]] std::vector<std::array<std::int64_t, 3>> fault_rows() const {
    std::vector<std::array<std::int64_t, 3>> rows;
    for (const obs::TraceEvent& e : faults) {
      rows.push_back({e.slot, e.a, static_cast<std::int64_t>(e.job)});
    }
    return rows;
  }
};

/// Runs a Simulation over `jobs` (a workload::Instance, or an arrival
/// process for a streaming run) to completion, collecting the records the
/// way any caller does: slots through Simulation::set_observer, faults
/// from a kFault CollectSink on a tracer the run gets in config.tracer.
template <typename Jobs>
RecordedRun run_recorded(Jobs jobs, const sim::ProtocolFactory& factory,
                         sim::SimConfig config,
                         std::unique_ptr<sim::Jammer> jammer = nullptr) {
  obs::Tracer tracer;
  const auto faults =
      std::make_shared<obs::CollectSink>(obs::EventKind::kFault);
  tracer.add_sink(faults);
  config.tracer = &tracer;
  RecordedRun out;
  sim::Simulation sim(std::move(jobs), factory, config, std::move(jammer));
  sim.set_observer([&out](const sim::SlotRecord& rec,
                          std::span<const sim::Transmission>) {
    out.slots.push_back(rec);
  });
  out.result = sim.finish();
  tracer.close();
  out.faults = faults->events();
  return out;
}

/// Expects two collected event streams to be identical: same length and,
/// event by event, the same seq, slot, kind, job, a, b, x and label text.
inline void expect_events_identical(const std::vector<obs::TraceEvent>& want,
                                    const std::vector<obs::TraceEvent>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const obs::TraceEvent& a = want[i];
    const obs::TraceEvent& b = got[i];
    EXPECT_EQ(a.seq, b.seq) << "event " << i;
    EXPECT_EQ(a.slot, b.slot) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.job, b.job) << "event " << i;
    EXPECT_EQ(a.a, b.a) << "event " << i;
    EXPECT_EQ(a.b, b.b) << "event " << i;
    EXPECT_EQ(a.x, b.x) << "event " << i;
    if (a.label == nullptr || b.label == nullptr) {
      EXPECT_EQ(a.label, b.label) << "event " << i;
    } else {
      EXPECT_STREQ(a.label, b.label) << "event " << i;
    }
  }
}

}  // namespace crmd::test
