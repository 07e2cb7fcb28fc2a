#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

/// \file timeline.hpp (obs)
/// Streaming per-slot-bucket aggregator: the time-resolved companion to
/// the end-of-run scalars in sim::SimMetrics. A Timeline is an EventSink —
/// attach it to a Tracer and every channel-level event folds into one of a
/// fixed number of slot buckets, so a 10^9-slot horizon costs the same
/// memory as a 10^3-slot one.
///
/// Bounded-memory contract: the bucket count is fixed at construction
/// (rounded up to a power of two) and bucket widths are powers of two.
/// Buckets start one slot wide; when an event lands past the last bucket,
/// widths double and adjacent bucket pairs fold together (sum of counts,
/// sum of contention) until the slot fits. Growth is therefore O(log
/// horizon) total fold passes over a constant-size array — never an
/// allocation proportional to the horizon.
///
/// Determinism: a Timeline only ever adds integers and sums doubles in
/// the order events arrive. Parallel runs reach the tracer in run order
/// (see obs/run_traced.hpp), so the aggregate — and
/// its serialized JSON — is bit-identical for every --threads value, and
/// attaching a Timeline never perturbs simulation results (sinks only
/// observe; see trace.hpp's cost model).
///
/// Replication folding: every replication restarts at slot 0, so bucket b
/// aggregates slot-window [b*width, (b+1)*width) across *all*
/// replications — the per-window view the paper's trajectory claims are
/// stated over.

namespace crmd::obs {

/// Aggregates for one slot window. "true_*" counts come from the
/// authoritative channel outcome (kSlotResolved); "seen_*" from the
/// listener-perceived outcome after the feedback model (kSlotPerceived) —
/// the gap between the two is exactly what a degraded feedback model or a
/// jammer hides from protocols.
struct TimelineBucket {
  /// Log2 buckets of declared per-transmission probability: index
  /// min(floor(-log2(p)), kProbLevels-1), so level 0 is p in (1/2, 1] and
  /// deeper levels are deeper backoff.
  static constexpr std::size_t kProbLevels = 16;

  std::int64_t resolved_slots = 0;   ///< slots resolved in this window
  std::int64_t live_job_slots = 0;   ///< sum of live-set size per slot
  std::int64_t attempts = 0;         ///< transmissions (kTransmit)
  double contention_sum = 0.0;       ///< sum of C(t) over resolved slots
  std::int64_t true_silence = 0;     ///< channel outcome tallies
  std::int64_t true_success = 0;
  std::int64_t true_noise = 0;
  std::int64_t seen_silence = 0;     ///< listener-perceived tallies
  std::int64_t seen_success = 0;
  std::int64_t seen_noise = 0;
  std::int64_t activations = 0;      ///< kJobActivate
  std::int64_t retires = 0;          ///< kJobRetire with success (a=1)
  std::int64_t expiries = 0;         ///< kJobRetire without success (a=0)
  std::int64_t faults = 0;           ///< kFault injections
  std::int64_t capture_wins = 0;     ///< kCaptureWin (capture model leaks)
  std::int64_t cost_slots = 0;       ///< kCostSlot (collision-cost freezes)
  std::int64_t awake_job_slots = 0;  ///< sum of awake jobs per slot
                                     ///< (kSlotPerceived x payload, §6k);
                                     ///< fast-forwarded spans add zero
  std::int64_t radio_sleeps = 0;     ///< kRadioSleep transitions
  std::int64_t radio_wakes = 0;      ///< kRadioWake transitions
  std::array<std::int64_t, kProbLevels> prob_level{};  ///< backoff ladder

  /// Folds `other` into this bucket (used when widths double).
  void merge(const TimelineBucket& other) noexcept;

  /// True when every field is zero (an untouched window).
  [[nodiscard]] bool empty() const noexcept;
};

/// The streaming aggregator. See the file comment for the contracts.
class Timeline final : public EventSink {
 public:
  /// `bucket_count` is rounded up to a power of two (minimum 2).
  explicit Timeline(std::size_t bucket_count = 256);

  void on_event(const TraceEvent& event) override;

  /// Slots covered by each bucket (a power of two).
  [[nodiscard]] std::int64_t bucket_width() const noexcept {
    return std::int64_t{1} << width_log2_;
  }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] const TimelineBucket& bucket(std::size_t i) const {
    return buckets_.at(i);
  }
  /// Highest slot index seen so far (-1 before any event).
  [[nodiscard]] std::int64_t max_slot() const noexcept { return max_slot_; }
  /// Events folded in (all kinds, including ignored protocol-level ones).
  [[nodiscard]] std::uint64_t events_seen() const noexcept {
    return events_seen_;
  }
  /// Slots covered by fast-forward kIdleSkip batches (each expanded into
  /// its buckets exactly as if simulated per slot).
  [[nodiscard]] std::int64_t fast_forward_slots() const noexcept {
    return fast_forward_slots_;
  }
  /// Largest live-set size observed (kSlotPerceived / kIdleSkip payloads).
  [[nodiscard]] std::int64_t live_peak() const noexcept { return live_peak_; }

  /// Stamps the shard count into the JSON meta (harness-provided; the
  /// event stream itself cannot know how many shards fed it). Default 1.
  void note_shards(int shards) noexcept {
    if (shards > shards_) {
      shards_ = shards;
    }
  }
  [[nodiscard]] int shards() const noexcept { return shards_; }

  /// Serializes as {"meta": {...}, "buckets": [...]}: meta carries the
  /// schema tag, bucket geometry, max slot, and event count; buckets run
  /// from slot 0 through the bucket containing max_slot (inclusive), each
  /// with its slot window and every TimelineBucket field. Deterministic
  /// byte-for-byte for a deterministic event stream.
  void write_json(std::ostream& out) const;

  /// write_json to a file; false when the file cannot be written.
  [[nodiscard]] bool save_json(const std::string& path) const;

 private:
  void rescale();  // double widths, fold bucket pairs

  std::vector<TimelineBucket> buckets_;
  int width_log2_ = 0;
  std::int64_t max_slot_ = -1;
  std::uint64_t events_seen_ = 0;
  std::int64_t fast_forward_slots_ = 0;
  std::int64_t live_peak_ = 0;
  int shards_ = 1;
};

}  // namespace crmd::obs
