// Tests for the CSV trace exporters.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "test_helpers.hpp"

namespace crmd::sim {
namespace {

TEST(Trace, SlotTraceCsvShape) {
  auto instance = test::instance_of({{0, 6}});
  const auto slots =
      test::run_recorded(instance, test::script_factory({2}), SimConfig{})
          .slots;

  std::ostringstream out;
  write_slot_trace_csv(out, slots);
  const std::string csv = out.str();
  // Header + one line per recorded slot.
  std::size_t lines = 0;
  for (const char ch : csv) {
    lines += (ch == '\n') ? 1 : 0;
  }
  EXPECT_EQ(lines, slots.size() + 1);
  EXPECT_NE(csv.find("slot,outcome"), std::string::npos);
  EXPECT_NE(csv.find("success,data"), std::string::npos)
      << "the delivery slot carries its message kind";
  EXPECT_NE(csv.find("silence"), std::string::npos);
}

TEST(Trace, JobResultsCsvShape) {
  auto instance = test::instance_of({{0, 10}, {0, 10}});
  const auto result =
      run(instance, test::per_job_script_factory({{2}, {2}}), SimConfig{});
  std::ostringstream out;
  write_job_results_csv(out, result.jobs);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("id,release,deadline"), std::string::npos);
  // Both jobs collided: success=0 and success_slot=-1.
  EXPECT_NE(csv.find(",0,-1,"), std::string::npos);
}

TEST(Trace, SaveToFileRoundTrips) {
  auto instance = test::instance_of({{0, 6}});
  const auto slots =
      test::run_recorded(instance, test::script_factory({1}), SimConfig{})
          .slots;
  const std::string path = "/tmp/crmd_trace_test.csv";
  ASSERT_TRUE(save_slot_trace_csv(path, slots));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "slot,outcome,success_kind,contention,transmitters,live_jobs,"
            "jammed,faults");
}

TEST(Trace, FaultCsvListsOnlyFaults) {
  const auto event = [](obs::EventKind kind, Slot slot, JobId job,
                        std::int64_t a) {
    obs::TraceEvent e;
    e.kind = kind;
    e.slot = slot;
    e.job = job;
    e.a = a;
    return e;
  };
  const auto fault = [&event](Slot slot, FaultKind kind, JobId job) {
    return event(obs::EventKind::kFault, slot, job,
                 static_cast<std::int64_t>(kind));
  };
  const std::vector<obs::TraceEvent> events = {
      event(obs::EventKind::kJobActivate, 0, 0, 0),
      fault(3, FaultKind::kFeedbackLoss, 2),
      event(obs::EventKind::kSlotResolved, 3, kNoJob, 1),
      fault(3, FaultKind::kFeedbackCorrupt, 0),
      event(obs::EventKind::kStage, 4, 1, 2),
      fault(5, FaultKind::kClockSkew, 1),
      fault(7, FaultKind::kCrash, 4),
      event(obs::EventKind::kJobRetire, 8, 4, 0),
      fault(12, FaultKind::kRestart, 4),
  };
  std::ostringstream out;
  write_fault_events_csv(out, events);
  EXPECT_EQ(out.str(),
            "slot,kind,job\n"
            "3,feedback-loss,2\n"
            "3,feedback-corrupt,0\n"
            "5,clock-skew,1\n"
            "7,crash,4\n"
            "12,restart,4\n");

  std::ostringstream none;
  write_fault_events_csv(none, {});
  EXPECT_EQ(none.str(), "slot,kind,job\n");
}

TEST(Trace, SaveFailsOnBadPath) {
  EXPECT_FALSE(save_slot_trace_csv("/nonexistent-dir/x.csv", {}));
  EXPECT_FALSE(save_job_results_csv("/nonexistent-dir/x.csv", {}));
  EXPECT_FALSE(save_fault_events_csv("/nonexistent-dir/x.csv", {}));
}

}  // namespace
}  // namespace crmd::sim
