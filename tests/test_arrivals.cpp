// Streaming arrival processes (sim/arrivals.hpp): spec parsing round-trips
// and rejections, determinism and nondecreasing-release guarantees of the
// stochastic processes, trace file round-trip and loud-failure behavior,
// and materialize_arrivals horizon clipping.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/arrivals.hpp"
#include "util/rng.hpp"
#include "workload/instance.hpp"

namespace crmd::sim {
namespace {

std::optional<ArrivalSpec> parse_quiet(const std::string& spec) {
  std::ostringstream diag;
  return parse_arrivals_spec(spec, diag);
}

/// RAII temp trace file; removed on destruction.
class TempTrace {
 public:
  explicit TempTrace(const std::string& body) {
    path_ = testing::TempDir() + "crmd_arrivals_trace.csv";
    std::ofstream out(path_);
    out << body;
  }
  ~TempTrace() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ArrivalSpecParse, AcceptsCanonicalForms) {
  const auto poisson = parse_quiet("poisson:0.25");
  ASSERT_TRUE(poisson.has_value());
  EXPECT_EQ(poisson->kind, ArrivalSpec::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(poisson->rate, 0.25);
  EXPECT_EQ(poisson->window, 4096);

  const auto poisson_w = parse_quiet("poisson:0.25:128");
  ASSERT_TRUE(poisson_w.has_value());
  EXPECT_EQ(poisson_w->window, 128);

  const auto mmpp = parse_quiet("mmpp:0.001:0.1:256:1024");
  ASSERT_TRUE(mmpp.has_value());
  EXPECT_EQ(mmpp->kind, ArrivalSpec::Kind::kMmpp);
  EXPECT_DOUBLE_EQ(mmpp->rate, 0.001);
  EXPECT_DOUBLE_EQ(mmpp->rate_hi, 0.1);
  EXPECT_EQ(mmpp->window, 256);
  EXPECT_EQ(mmpp->dwell, 1024);

  const auto trace = parse_quiet("trace:/some/file.csv");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->kind, ArrivalSpec::Kind::kTrace);
  EXPECT_EQ(trace->path, "/some/file.csv");
}

TEST(ArrivalSpecParse, SpecStringRoundTrips) {
  for (const char* spec :
       {"poisson:0.25:128", "mmpp:0.001:0.1:256:1024", "trace:/f.csv"}) {
    const auto parsed = parse_quiet(spec);
    ASSERT_TRUE(parsed.has_value()) << spec;
    const auto reparsed = parse_quiet(parsed->spec());
    ASSERT_TRUE(reparsed.has_value()) << parsed->spec();
    EXPECT_EQ(reparsed->kind, parsed->kind) << spec;
    EXPECT_DOUBLE_EQ(reparsed->rate, parsed->rate) << spec;
    EXPECT_EQ(reparsed->window, parsed->window) << spec;
  }
}

TEST(ArrivalSpecParse, RejectsMalformedSpecsWithOneLineError) {
  for (const char* bad :
       {"", "poisson", "poisson:", "poisson:-0.5", "poisson:0",
        "poisson:nan", "poisson:0.1:0", "poisson:0.1:junk",
        "mmpp:0.1", "mmpp:0.1:-1", "mmpp:0.1:0.2:0", "trace:",
        "uniform:0.1", "poisson:0.1:64:extra",
        "poisson:0.5:9223372036854775807", "poisson:0.5:4611686018427387905",
        "mmpp:0.1:0.2:4611686018427387905",
        "mmpp:0.1:0.2:64:4611686018427387905"}) {
    std::ostringstream diag;
    EXPECT_FALSE(parse_arrivals_spec(bad, diag).has_value()) << bad;
    const std::string msg = diag.str();
    EXPECT_NE(msg.find("error: bad --arrivals spec"), std::string::npos)
        << bad << " -> " << msg;
    // One line exactly.
    EXPECT_EQ(msg.find('\n'), msg.size() - 1) << bad << " -> " << msg;
  }
}

TEST(PoissonArrivalsTest, DeterministicAndNondecreasing) {
  const auto draw = [](std::uint64_t seed) {
    PoissonArrivals process(0.05, 64);
    util::Rng rng(seed);
    std::vector<workload::JobSpec> jobs;
    for (int i = 0; i < 200; ++i) {
      const auto job = process.next(rng);
      EXPECT_TRUE(job.has_value());  // infinite process never exhausts
      if (job.has_value()) {
        jobs.push_back(*job);
      }
    }
    return jobs;
  };
  const auto a = draw(7);
  const auto b = draw(7);
  EXPECT_EQ(a, b);  // pure function of the seed
  const auto c = draw(8);
  EXPECT_NE(a, c);  // and actually seed-sensitive

  Slot prev = 0;
  for (const workload::JobSpec& job : a) {
    EXPECT_GE(job.release, prev);
    EXPECT_EQ(job.deadline, job.release + 64);
    prev = job.release;
  }
}

TEST(MmppArrivalsTest, DeterministicNondecreasingAndBursty) {
  MmppArrivals process(0.001, 0.2, 32, 256);
  util::Rng rng(11);
  std::vector<Slot> releases;
  for (int i = 0; i < 400; ++i) {
    const auto job = process.next(rng);
    ASSERT_TRUE(job.has_value());
    if (!releases.empty()) {
      EXPECT_GE(job->release, releases.back());
    }
    EXPECT_EQ(job->deadline, job->release + 32);
    releases.push_back(job->release);
  }
  // Burstiness: with a 200x rate ratio the gap distribution must be far
  // from uniform — some consecutive arrivals land in the same slot (high
  // state) while at least one low-state gap spans hundreds of slots.
  Slot max_gap = 0;
  std::int64_t zero_gaps = 0;
  for (std::size_t i = 1; i < releases.size(); ++i) {
    const Slot gap = releases[i] - releases[i - 1];
    max_gap = std::max(max_gap, gap);
    zero_gaps += gap == 0 ? 1 : 0;
  }
  EXPECT_GT(max_gap, 100);
  EXPECT_GT(zero_gaps, 0);
}

TEST(ArrivalLimits, WindowAndDwellAreCappedAt2To62) {
  const auto window = [](Slot w) { return "poisson:0.5:" + std::to_string(w); };
  EXPECT_TRUE(parse_quiet(window(kMaxArrivalSlots)).has_value());
  EXPECT_FALSE(parse_quiet(window(kMaxArrivalSlots + 1)).has_value());
  EXPECT_NO_THROW(PoissonArrivals(0.5, kMaxArrivalSlots));
  EXPECT_THROW(PoissonArrivals(0.5, kMaxArrivalSlots + 1),
               std::invalid_argument);
  EXPECT_NO_THROW(MmppArrivals(0.1, 0.2, kMaxArrivalSlots, kMaxArrivalSlots));
  EXPECT_THROW(MmppArrivals(0.1, 0.2, kMaxArrivalSlots + 1, 64),
               std::invalid_argument);
  EXPECT_THROW(MmppArrivals(0.1, 0.2, 64, kMaxArrivalSlots + 1),
               std::invalid_argument);
}

// The state walk takes about 1 / (rate * dwell) flips per arrival, so a
// rate that needs more than 2^32 of them is rejected up front instead of
// spinning toward the 2^62 end of the clock.
TEST(ArrivalLimits, MmppRejectsRatesThatNeedOver2To32FlipsPerArrival) {
  EXPECT_THROW(MmppArrivals(1e-300, 1e-300, 64, 16384), std::invalid_argument);
  EXPECT_THROW(MmppArrivals(1e-300, 1e-15, 64, 1024), std::invalid_argument);
  const double edge = std::ldexp(1.0, -32);  // rate * dwell exactly 2^-32
  EXPECT_NO_THROW(MmppArrivals(edge / 1024, edge / 1024, 64, 1024));
  EXPECT_THROW(MmppArrivals(edge / 1024, edge / 1024, 64, 1023),
               std::invalid_argument);
  // Only the faster state's rate counts.
  EXPECT_NO_THROW(MmppArrivals(1e-300, 0.01, 64, 16384));
  EXPECT_NO_THROW(MmppArrivals(0.01, 1e-300, 64, 16384));
}

TEST(ArrivalLimits, StreamsEndOnceTheClockReaches2To62) {
  // A rate of 1e-300 puts the first arrival near slot 1e300: the stream
  // ends at once, and stays ended.
  util::Rng rng(1);
  PoissonArrivals never(1e-300, 64);
  EXPECT_FALSE(never.next(rng).has_value());
  EXPECT_FALSE(never.next(rng).has_value());
  PoissonArrivals never_again(1e-300, 64);
  EXPECT_TRUE(materialize_arrivals(never_again, 1000, rng).empty());

  // Gaps of about 10^18 slots: a few jobs, then the end. Every job keeps
  // its full window with the largest window allowed.
  const auto drain = [](ArrivalProcess& process) {
    util::Rng r(2);
    std::vector<workload::JobSpec> jobs;
    for (int i = 0; i < 1000; ++i) {
      const auto job = process.next(r);
      if (!job) {
        return jobs;
      }
      jobs.push_back(*job);
    }
    ADD_FAILURE() << "the stream did not end";
    return jobs;
  };
  PoissonArrivals poisson(1e-18, kMaxArrivalSlots);
  MmppArrivals mmpp(1e-18, 2e-18, kMaxArrivalSlots, kMaxArrivalSlots);
  for (ArrivalProcess* process :
       std::initializer_list<ArrivalProcess*>{&poisson, &mmpp}) {
    for (const workload::JobSpec& job : drain(*process)) {
      EXPECT_GE(job.release, 0);
      EXPECT_LT(job.release, kMaxArrivalSlots);
      EXPECT_EQ(job.deadline - job.release, kMaxArrivalSlots);
    }
  }
}

TEST(TraceArrivalsTest, RoundTripsThroughCsv) {
  const TempTrace trace(
      "# release,deadline\n"
      "0,16\n"
      "\n"
      "4,36\n"
      "4,20\n"
      "100,228\n");
  TraceArrivals process(trace.path());
  util::Rng rng(1);
  const std::vector<workload::JobSpec> expected = {
      {0, 16}, {4, 36}, {4, 20}, {100, 228}};
  for (const workload::JobSpec& want : expected) {
    const auto got = process.next(rng);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, want);
  }
  EXPECT_FALSE(process.next(rng).has_value());  // finite: exhausts
  EXPECT_FALSE(process.next(rng).has_value());  // and stays exhausted
}

TEST(TraceArrivalsTest, ThrowsLoudlyOnBadInput) {
  EXPECT_THROW(TraceArrivals("/nonexistent/crmd/trace.csv"),
               std::runtime_error);
  {
    const TempTrace malformed("0,16\nnot-a-row\n");
    EXPECT_THROW(TraceArrivals{malformed.path()}, std::runtime_error);
  }
  {
    const TempTrace decreasing("10,20\n5,30\n");
    EXPECT_THROW(TraceArrivals{decreasing.path()}, std::runtime_error);
  }
  {
    const TempTrace empty_window("4,4\n");
    EXPECT_THROW(TraceArrivals{empty_window.path()}, std::runtime_error);
  }
}

TEST(VectorArrivalsTest, ReplaysInOrder) {
  const std::vector<workload::JobSpec> jobs = {{0, 8}, {2, 10}, {2, 4}};
  VectorArrivals process(jobs);
  util::Rng rng(1);
  for (const workload::JobSpec& want : jobs) {
    const auto got = process.next(rng);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, want);
  }
  EXPECT_FALSE(process.next(rng).has_value());
}

TEST(MaterializeArrivals, ClipsAtHorizonAndNormalizes) {
  PoissonArrivals process(0.1, 32);
  util::Rng rng(5);
  const Slot horizon = 512;
  const workload::Instance instance =
      materialize_arrivals(process, horizon, rng);
  ASSERT_FALSE(instance.empty());
  Slot prev = 0;
  for (const workload::JobSpec& job : instance.jobs) {
    EXPECT_LT(job.release, horizon);
    EXPECT_GE(job.release, prev);
    prev = job.release;
  }
  // The clip is exclusive on releases only: deadlines may overhang. The
  // first arrival at/past the horizon is consumed by the clip, so the
  // process's clock is already past it — later draws stay past it too.
  const auto next = process.next(rng);
  ASSERT_TRUE(next.has_value());
  EXPECT_GE(next->release, horizon);
}

TEST(MaterializeArrivals, SpecFactoryBuildsWorkingProcess) {
  const auto spec = parse_quiet("mmpp:0.01:0.2:64:512");
  ASSERT_TRUE(spec.has_value());
  const auto process = spec->make();
  ASSERT_NE(process, nullptr);
  util::Rng rng(3);
  const workload::Instance instance =
      materialize_arrivals(*process, 2048, rng);
  EXPECT_FALSE(instance.empty());
}

}  // namespace
}  // namespace crmd::sim
