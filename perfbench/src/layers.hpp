#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "obs/trace.hpp"
#include "sim/arrivals.hpp"
#include "sim/protocol.hpp"

/// \file layers.hpp
/// Forwarding decorators that time the calls into each library layer from
/// outside, plus the in-memory span log of the traced run. Nothing here
/// changes a decision or an RNG draw: every decorator forwards each call
/// unchanged, so a decorated run's results are bit-identical to the plain
/// run's (checked by the benchmark and by tests/test_decorators.cpp).

namespace perfbench {

/// Monotonic host time in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Timestamp for sampled calls: the TSC on x86-64, which does not
/// serialize the pipeline and so perturbs a short timed call less than a
/// clock_gettime does; steady_clock nanoseconds elsewhere.
[[nodiscard]] inline std::int64_t ticks() noexcept {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__builtin_ia32_rdtsc());
#else
  return now_ns();
#endif
}

/// Nanoseconds per tick, calibrated once against steady_clock.
[[nodiscard]] double ns_per_tick();

/// Median ticks of a back-to-back ticks() pair, subtracted from every
/// sampled call.
[[nodiscard]] double tick_overhead();

/// Protocol families the traced run reports, in metric order.
enum class Family : std::uint8_t {
  kUniform,
  kAligned,
  kPunctual,
  kNocdRobust,
  kEnergyBeb,
};
inline constexpr std::size_t kFamilies = 5;

/// Metric prefix of a family ("core.uniform", "baselines.energy_beb", ...).
[[nodiscard]] const char* family_prefix(Family family) noexcept;

/// Family of a registered protocol name; nullopt for names not measured.
[[nodiscard]] std::optional<Family> family_of(const std::string& protocol);

/// Virtual calls into a protocol (plus its factory construction).
enum class Call : std::uint8_t {
  kCtor,
  kActivate,
  kOnSlot,
  kOnFeedback,
  kDone,
  kDormantSpan,
};
inline constexpr std::size_t kCalls = 6;

/// Every call is counted exactly; one call in kSamplePeriod (by a per-thread
/// counter, so the choice is deterministic) is timed, and halfway between
/// two timed calls an empty interval is timed at the same spot, which
/// measures the timer's own cost in the same pipeline state. Construction
/// and activation happen once per job and are always timed.
inline constexpr std::int64_t kSamplePeriod = 16;

struct CallStats {
  std::int64_t calls = 0;
  std::int64_t sampled = 0;
  std::int64_t sampled_ticks = 0;
  std::int64_t empty = 0;
  std::int64_t empty_ticks = 0;

  /// Mean ns per call from the timed sample, minus the mean empty interval
  /// (or tick_overhead() when none was taken).
  [[nodiscard]] double mean_ns() const;
  /// Estimated total ns of all calls (mean x calls).
  [[nodiscard]] double total_ns() const;
};

using FamilyStats = std::array<CallStats, kCalls>;
using CallTable = std::array<FamilyStats, kFamilies>;

/// Zeroes every thread's counters. Only call while no decorated protocol
/// is running (between passes).
void reset_call_stats();
/// Sums every thread's counters. Same precondition as reset_call_stats.
[[nodiscard]] CallTable collect_call_stats();

/// Wraps a factory so every protocol it builds is a TimedProtocol charging
/// `family`. Keeps the inner factory's arena path when it has one.
[[nodiscard]] crmd::sim::ProtocolFactory decorate_factory(
    crmd::sim::ProtocolFactory inner, Family family);

/// A closed interval of one thread's work. Spans of one run share `run`;
/// `parent` is 0 for a run's root span.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t run = 0;
  const char* name = "";
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;

  [[nodiscard]] std::int64_t ns() const noexcept { return t1 - t0; }
};

/// Thread-safe in-memory span store, written out once at exit.
class SpanLog {
 public:
  /// Reserves an id for a span whose interval is filled in by add().
  [[nodiscard]] std::uint32_t next_id();
  /// A fresh run id.
  [[nodiscard]] std::uint32_t next_run();
  void add(const Span& span);
  /// Writes one JSON object per span. Returns false on an I/O error.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 1;
  std::uint32_t next_run_ = 1;
};

/// Per-worker replication spans: the decorated InstanceGen opens a "rep"
/// span at each call (closing the worker's previous one) and records a
/// "generate" child; the first protocol activation afterwards on the same
/// thread closes a "construct" span that starts when generation ends.
class RepTracker {
 public:
  explicit RepTracker(SpanLog& log);
  ~RepTracker();
  RepTracker(const RepTracker&) = delete;
  RepTracker& operator=(const RepTracker&) = delete;

  /// Wraps `inner`; the result must not outlive this tracker.
  [[nodiscard]] crmd::analysis::InstanceGen decorate(
      crmd::analysis::InstanceGen inner);

  /// Closes every worker's open rep span at `t_end` (the sweep's return).
  void close_all(std::int64_t t_end);

  /// Called by TimedProtocol::on_activate on the activating thread.
  static void note_activation(std::int64_t t) noexcept;

  struct Totals {
    std::int64_t reps = 0;
    std::int64_t jobs = 0;
    std::int64_t gen_ns = 0;
    std::int64_t construct_ns = 0;
    std::int64_t constructs = 0;
  };
  [[nodiscard]] Totals totals() const;

  /// One worker thread's open spans and totals (defined in layers.cpp).
  struct Worker;

 private:
  Worker& worker();

  SpanLog& log_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

/// Counts and times every ArrivalProcess::next into `stats`, which must
/// outlive the process.
class TimedArrivals final : public crmd::sim::ArrivalProcess {
 public:
  TimedArrivals(std::unique_ptr<crmd::sim::ArrivalProcess> inner,
                CallStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}
  [[nodiscard]] std::optional<crmd::workload::JobSpec> next(
      crmd::util::Rng& rng) override;

 private:
  std::unique_ptr<crmd::sim::ArrivalProcess> inner_;
  CallStats* stats_;
};

/// Counts events and times a deterministic sample of on_event calls.
class TimedSink final : public crmd::obs::EventSink {
 public:
  explicit TimedSink(std::shared_ptr<crmd::obs::EventSink> inner)
      : inner_(std::move(inner)) {}
  void on_event(const crmd::obs::TraceEvent& event) override;
  void close() override { inner_->close(); }

  [[nodiscard]] const CallStats& stats() const noexcept { return stats_; }

 private:
  std::shared_ptr<crmd::obs::EventSink> inner_;
  CallStats stats_;
};

}  // namespace perfbench
