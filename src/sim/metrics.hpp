#pragma once

#include <cstdint>
#include <vector>

#include "sim/channel.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

/// \file metrics.hpp
/// Aggregated and per-slot measurements collected by the simulator.

namespace crmd::sim {

/// Snapshot of one resolved slot: SimMetrics folds every one, and a
/// SlotObserver (Simulation::set_observer) receives each as it resolves.
struct SlotRecord {
  Slot slot = 0;
  /// Outcome after jamming — what listeners perceived.
  SlotOutcome outcome = SlotOutcome::kSilence;
  /// Kind of the successful message; meaningful iff outcome == kSuccess.
  MessageKind success_kind = MessageKind::kData;
  /// §2.1 contention C(t): sum of the declared transmit probabilities of
  /// all live jobs in this slot.
  double contention = 0.0;
  /// Number of jobs that actually transmitted.
  std::uint32_t transmitters = 0;
  /// Number of live jobs during the slot.
  std::uint32_t live_jobs = 0;
  /// True when the adversary successfully jammed this slot.
  bool jammed = false;
  /// Number of fault events injected during this slot (crashes, skews,
  /// per-listener corruptions/losses — see faults.hpp).
  std::uint32_t faults = 0;
};

/// Whole-run channel statistics.
struct SimMetrics {
  /// Slots actually resolved (live jobs present). Includes fast-forwarded
  /// slots: they are accounted exactly as if simulated (DESIGN.md §6j).
  std::int64_t slots_simulated = 0;
  /// Idle slots skipped by fast-forwarding between arrival bursts (no live
  /// jobs; nothing to account — NOT part of slots_simulated).
  std::int64_t slots_skipped = 0;
  /// Slots covered by the event-driven fast-forward engine instead of
  /// per-slot simulation (SimConfig::fast_forward; subset of
  /// slots_simulated, zero with fast-forward off). Like capture_wins this
  /// is a pinned artifact of the engine's traversal, deliberately excluded
  /// from the golden report digest (tests/report_digest.hpp).
  std::int64_t fast_forward_slots = 0;
  /// Largest live-set size observed in any single slot (max-merged across
  /// runs; excluded from the golden report digest like fast_forward_slots).
  std::int64_t live_peak = 0;

  std::int64_t silent_slots = 0;
  std::int64_t success_slots = 0;
  std::int64_t noise_slots = 0;
  /// Slots turned to noise by the adversary (subset of noise_slots).
  std::int64_t jammed_slots = 0;

  /// Successful messages by kind.
  std::int64_t data_successes = 0;
  std::int64_t control_successes = 0;
  std::int64_t start_successes = 0;
  std::int64_t claim_successes = 0;
  std::int64_t timekeeper_successes = 0;

  /// Injected faults by kind (see faults.hpp; zero in fault-free runs).
  std::int64_t faults_injected = 0;
  std::int64_t feedback_corruptions = 0;
  std::int64_t feedback_losses = 0;
  std::int64_t clock_skew_events = 0;
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
  /// Job-slots spent dark (crashed/stalled jobs that were live but deaf).
  std::int64_t dark_job_slots = 0;
  /// Job-slots spent live (every live job counts every slot, dark or not;
  /// fast-forwarded spans batch-account theirs). The denominator for the
  /// radio duty cycle below: an always-listening protocol has
  /// slots_awake == live_job_slots − dark_job_slots. Added alongside the
  /// §6k energy counters and, like them, excluded from the frozen golden
  /// report digest.
  std::int64_t live_job_slots = 0;

  /// Slots whose broadcast feedback was flipped by the noisy feedback
  /// model (channel.hpp FeedbackKind::kNoisy; zero for every other model).
  std::int64_t feedback_flips = 0;

  /// Radio-energy accounting (DESIGN.md §6k): job-slots spent with the
  /// radio on, summed over every live job. A job-slot is *transmitting*
  /// when the job put a message on the channel, *listening* when it was
  /// live, non-dark, and did not declare sleep (SlotAction::sleep or a
  /// dormancy promise), and asleep otherwise. The states are disjoint, so
  /// slots_awake == slots_listening + slots_transmitting always (pinned by
  /// tests/test_energy.cpp). Fast-forwarded spans account zero awake
  /// job-slots both ways — a dormant span is exactly a sleep span — which
  /// is why these counters are bit-identical across --fast-forward modes.
  /// Like capture_wins, deliberately excluded from the golden report
  /// digest (tests/report_digest.hpp); pinned by their own kGoldenEnergy
  /// digests instead.
  std::int64_t slots_awake = 0;
  std::int64_t slots_listening = 0;
  std::int64_t slots_transmitting = 0;

  /// Collisions from which the capture model leaked a winning broadcast
  /// (FeedbackKind::kCapture; subset of success_slots, zero otherwise).
  std::int64_t capture_wins = 0;
  /// Slots lost to collision-cost recovery freezes (simulator.hpp
  /// SimConfig::collision_cost; subset of noise_slots, zero when cost
  /// is 1).
  std::int64_t collision_cost_slots = 0;

  /// Distribution of per-slot contention across simulated slots.
  util::RunningStats contention;

  /// Registers one resolved slot.
  void record(const SlotRecord& rec);

  /// Accumulates another run's metrics into this one (field-wise sums;
  /// contention distributions merge exactly). Used by the replication
  /// driver and any custom harness loop that aggregates runs.
  void merge(const SimMetrics& other);

  /// Fraction of simulated slots carrying a successful data message.
  [[nodiscard]] double data_throughput() const noexcept;
};

/// Outcome of one job.
struct JobResult {
  JobId id = kNoJob;
  Slot release = 0;
  Slot deadline = 0;
  /// True when the job's data message was delivered inside its window.
  bool success = false;
  /// Slot of the successful delivery; kNoSlot when the job failed.
  Slot success_slot = kNoSlot;
  /// Channel accesses: slots in which the job transmitted anything. The
  /// energy-complexity literature the paper cites measures protocols by
  /// exactly this count.
  std::int64_t transmissions = 0;
  /// Slots the job spent live (awake or asleep).
  std::int64_t live_slots = 0;
  /// Live slots the job spent dark (crashed/stalled; subset of live_slots).
  std::int64_t dark_slots = 0;
  /// Live slots spent listening: radio on without transmitting
  /// (DESIGN.md §6k). Disjoint from transmissions; excludes sleep slots,
  /// dark slots, and fast-forwarded dormant spans.
  std::int64_t listen_slots = 0;

  /// Window size.
  [[nodiscard]] Slot window() const noexcept { return deadline - release; }
  /// Slots the radio was on: listening or transmitting (DESIGN.md §6k).
  [[nodiscard]] std::int64_t awake_slots() const noexcept {
    return listen_slots + transmissions;
  }
  /// Delivery latency (slots from release to success); only meaningful for
  /// successful jobs.
  [[nodiscard]] Slot latency() const noexcept {
    return success ? success_slot - release + 1 : -1;
  }
};

/// Rolling per-job aggregate for streaming (open-ended arrival) runs:
/// jobs are folded in as they retire so memory stays bounded by the live
/// set, not the cumulative job count (DESIGN.md §6j).
struct StreamSummary {
  /// Cumulative jobs that entered the system (including degenerate
  /// zero-window arrivals that never activate).
  std::int64_t jobs = 0;
  /// Jobs whose data message was delivered inside their window.
  std::int64_t delivered = 0;
  /// Delivery latency (slots from release to success) over delivered jobs.
  util::RunningStats latency;
  /// Channel accesses (transmissions) per job, over all folded jobs.
  util::RunningStats accesses;
  /// Awake (listening + transmitting) slots per job, over all folded jobs
  /// (DESIGN.md §6k).
  util::RunningStats awake;

  /// Folds one retired job in (the same fields SimResult::jobs would keep).
  void add(const JobResult& job) noexcept;
  /// Accumulates another summary (shard fold; exact parallel merges).
  void merge(const StreamSummary& other) noexcept;
  /// Fraction of folded jobs delivered (1.0 when empty, like
  /// SimResult::success_rate).
  [[nodiscard]] double delivery_rate() const noexcept;
};

/// Everything a simulation run produces.
struct SimResult {
  std::vector<JobResult> jobs;
  SimMetrics metrics;
  /// Streaming-mode rolling job aggregate; zero-initialized (jobs == 0)
  /// for batch runs, which keep per-job results in `jobs` instead.
  StreamSummary stream;

  /// Number of jobs that met their deadline.
  [[nodiscard]] std::int64_t successes() const noexcept;
  /// Fraction of jobs that met their deadline (1.0 for empty runs).
  [[nodiscard]] double success_rate() const noexcept;
};

}  // namespace crmd::sim
