#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/channel.hpp"
#include "sim/faults.hpp"
#include "sim/jammer.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "workload/instance.hpp"

/// \file simulator.hpp
/// Slot-driven simulation of the multiple-access channel.
///
/// One time slot spans k sub-channels (SimConfig::multichannel); k = 1 is
/// the paper's channel, and every job sits on exactly one channel. This is
/// the authoritative slot order, which tests/reference_sim.hpp follows
/// step by step:
///
///  1. Idle gap: while no job is live, `now` jumps to the next release.
///     The gap's slots count as slots_skipped (never simulated), and any
///     armed collision-cost freeze runs down across them.
///  2. The run ends once `now` reaches the horizon.
///  3. Activation: jobs whose release arrived become live in id order and
///     their protocols activate. A job whose window is already over never
///     activates.
///  4. Wakeups (fast-forward only): parked jobs whose dormancy promise
///     ended, or whose deadline arrived, become awake again.
///  5. Deadline retirement: live jobs with deadline <= now leave, in live
///     order. If none is left, the slot is not simulated.
///  6. Parking (fast-forward only): awake jobs holding a dormancy promise
///     are parked. If no job is left awake, the whole provably silent run
///     up to the next event is accounted at once and `now` jumps past it.
///  7. Faults: the fault injector advances each live job's crash, stall
///     and skew state in live order. Dead jobs retire; dark jobs sit out
///     the slot. If none is left, the slot is not simulated.
///  8. Decisions: each live job that is neither parked nor dark decides in
///     live order, bucketed by its channel. A channel's contention C(t) sums
///     the declared probabilities of its jobs (parked jobs add their
///     promised one). A transmitter or a job that does not declare sleep
///     is awake (listening or transmitting); the rest sleep (DESIGN.md
///     §6k).
///  9. Channels, in channel order: resolve (0 transmissions -> silence,
///     1 -> success, >= 2 -> noise); then a frozen channel is forced to
///     noise, else capture may leak one winner, then the jammer may turn
///     the slot into noise, and a perceived collision arms the freeze
///     (DESIGN.md §6i); then the feedback model projects the true outcome
///     into a listener view and a transmitter view (channel.hpp).
/// 10. Feedback: each live job that is neither parked nor dark observes its
///     own channel, in live order: the transmitter view if it transmitted on a channel whose
///     views differ (and did not win a capture), else the listener view.
///     The fault injector then filters it per listener, and a job that
///     declared sleep hears silence whatever the channel did.
/// 11. Records: one SlotRecord per channel feeds SimMetrics, record_slots
///     and the SlotObserver. The slot's fault count goes to channel 0.
/// 12. Migration (with MultiChannelConfig::migrate): a transmitter on a
///     channel that ended in noise counts a collision, and rehashes onto a
///     fresh channel after every `migrate_after` of them.
/// 13. Credit and retirement: each channel's delivered data message credits
///     its sender. The winners, then the unparked jobs reporting done() in
///     live order, leave the live set. A job's done() is read in step 10,
///     right after its own on_feedback (for a dark job, in its place), so
///     it may depend only on that job's protocol state.
///
/// Success crediting always uses the *true* channel outcome; feedback
/// models and faults change only what protocols perceive. The jammer, the
/// capture and noisy feedback models, the legacy collision_detection
/// ablation and fast-forward all require k = 1.
///
/// Engine layout (DESIGN.md §6e): per-job state is a hot structure-of-arrays
/// (release/deadline/protocol/live flags) plus cold JobResults; protocols
/// live in a per-simulation MonotonicArena; retirement is O(1) swap-remove
/// via a live-position index; per-slot scratch clearing scales with the
/// live set, not the total job count. The layout is bookkeeping only —
/// results are bit-identical to the original heap engine (pinned in
/// tests/test_determinism_golden.cpp).

namespace crmd::obs {
class Tracer;
}  // namespace crmd::obs

namespace crmd::sim {

class ArrivalProcess;

/// Event-driven fast-forward policy (DESIGN.md §6j). With `kOn`, every live
/// job that holds a dormancy promise (Protocol::dormant_span) is *parked*
/// until the promise expires or its deadline arrives: the slot loops tick
/// only the awake jobs, while parked jobs contribute their promised
/// probability to the slot's contention (bit-identical to the slot-by-slot
/// sum). When no job is left awake, the engine jumps `now` across the whole
/// provably-silent run to the next wakeup, arrival or the horizon,
/// accounting the skipped slots exactly as if simulated: slot counts,
/// silence counts, per-job live-slot counters, and the obs::Timeline
/// buckets all match; the contention distribution matches in count, min,
/// max, and (up to floating-point reassociation of the Welford update)
/// mean/variance. `kValidate` parks and skips the same way but also
/// simulates every parked slot in stripped form, throwing std::logic_error
/// if any protocol breaks its promise — its results are bit-identical to
/// `kOn` by construction, which is what tests/test_fast_forward.cpp pins.
///
/// Fast-forward silently disables itself (exactly `kOff` behavior) when the
/// run has per-slot randomness or per-slot artifacts a skip cannot
/// reproduce: a jammer, any fault plan, the noisy feedback model with
/// eps > 0, record_slots, or multiple channels. A SlotObserver suppresses
/// skips (but not parking) while installed.
enum class FastForward {
  kOff,       ///< never skip (the default; bit-identical to the pre-FF engine)
  kOn,        ///< park dormant jobs and skip provably-silent runs
  kValidate,  ///< as kOn, but re-simulate parked slots and check the promises
};

/// One-line usage text for --fast-forward error messages.
[[nodiscard]] std::string fast_forward_usage();

/// Parses "off" | "on" | "validate" (the --fast-forward flag). Returns
/// nullopt (after printing a one-line error with fast_forward_usage() to
/// `diag`) on anything else — CLI callers exit 2, matching the --feedback
/// pattern.
[[nodiscard]] std::optional<FastForward> parse_fast_forward_spec(
    const std::string& spec, std::ostream& diag);

/// FDMA-style multi-channel scenario (DESIGN.md §6j): the spectrum is split
/// into `channels` independent sub-channels, each with the paper's slotted
/// semantics, and every job is statically hashed onto one of them (see
/// multichannel.hpp shard_of). One simulated time slot resolves all k
/// channels — slots_simulated counts channel-slots, i.e. k per time slot.
struct MultiChannelConfig {
  /// Number of sub-channels; 1 = the paper's single channel. Every k runs
  /// the same slot pipeline, of which k = 1 is the paper's case.
  int channels = 1;
  /// When true, a job rehashes onto a fresh channel after every
  /// `migrate_after` collisions it suffers (deterministic rehash keyed on
  /// (seed, id, collision count) — no RNG stream is consumed).
  bool migrate = false;
  /// Collisions between migrations; >= 1.
  int migrate_after = 4;
};

/// Simulation parameters.
struct SimConfig {
  /// Master seed. Each job's protocol receives `Rng(seed).child(job id)`,
  /// so runs are exactly reproducible and per-job randomness is stable.
  std::uint64_t seed = 1;

  /// Hard stop (exclusive). Defaults to the maximum deadline of the
  /// instance when <= 0.
  Slot horizon = 0;

  /// When true, a SlotRecord is kept for every simulated slot (memory grows
  /// with the horizon — meant for tests and small traces).
  bool record_slots = false;

  /// The channel's feedback semantics (channel.hpp): how the true slot
  /// outcome is projected into what every observer perceives, and which
  /// ChannelCaps protocols are told about (via JobInfo::caps) so they can
  /// pick degraded-mode behavior. The default — the paper's ternary
  /// feedback — is a provable no-op: results are bit-identical to the
  /// pre-model engine (pinned in tests/test_determinism_golden.cpp and
  /// tests/test_feedback_models.cpp).
  FeedbackModel feedback;

  /// Collision-cost channel physics (DESIGN.md §6i; Biswas–Chakraborty–
  /// Young, arXiv:2408.11275): a slot whose post-jam outcome is noise — a
  /// perceived collision — freezes the channel for the next `cost - 1`
  /// slots, modeling PHY-layer recovery. Frozen slots run the full decision
  /// cycle (transmissions are attempted and wasted; energy is spent) but
  /// the true outcome is forced to noise, nothing is delivered, and no new
  /// freeze is armed. The default 1 is the paper's channel and is
  /// bit-identical to the pre-cost engine: the freeze path is never
  /// entered, no counter is consulted, no RNG stream is touched.
  int collision_cost = 1;

  /// Legacy *unadvertised* ablation (default on = the paper's assumption,
  /// §1.1): with collision detection, listeners receive ternary feedback.
  /// Without it, listeners cannot distinguish noise from silence (they
  /// receive kSilence for noisy slots); transmitters still learn that
  /// their own transmission failed (ACK-style). Unlike
  /// FeedbackModel::collision_as_silence this does NOT change the caps
  /// protocols see — it measures what happens when the paper's algorithms
  /// run *unaware* on a weaker channel (bench_model_assumptions). Only
  /// meaningful with the ternary model; validate() rejects other mixes.
  bool collision_detection = true;

  /// Fault injection between channel resolution and protocol observation
  /// (see faults.hpp). The default plan injects nothing and is a provable
  /// no-op: results are bit-identical to a fault-free build of the run.
  FaultPlan faults;

  /// Optional tracing session (non-owning; must outlive the simulation).
  /// Null = tracing off — the default, and guaranteed bit-identical to a
  /// traced run: emission points never touch protocol RNG streams. When
  /// set, the simulator emits channel-level events (job activate/retire,
  /// transmissions, slot resolution, success credits, faults) and every
  /// protocol emits its state-machine events (see obs/events.hpp).
  obs::Tracer* tracer = nullptr;

  /// Event-driven fast-forward across provably-silent runs of slots (see
  /// FastForward). The default kOff is bit-identical to the pre-FF engine:
  /// no dormant_span call is ever made.
  FastForward fast_forward = FastForward::kOff;

  /// Multi-channel scenario (see MultiChannelConfig). The default single
  /// channel is the paper's. With channels > 1 the feedback model must be
  /// ternary, binary_ack, or collision_as_silence (validate() rejects the
  /// noisy/capture models and the legacy collision_detection ablation),
  /// fast-forward is disabled, and the Simulation ctor rejects a jammer —
  /// v1 scope, DESIGN.md §6j.
  MultiChannelConfig multichannel;

  /// Streaming-mode compaction threshold (slots engine memory tolerates
  /// dead jobs at the front of its arrays before erasing them). Smaller
  /// values compact more often; tests shrink it to force the compaction
  /// path. Batch runs never compact.
  std::int64_t stream_compact = 4096;

  /// Streaming mode only: when true (default) per-job JobResults are kept
  /// and returned in SimResult::jobs (sorted by id — memory grows with the
  /// cumulative job count); when false only SimResult::stream is filled,
  /// so a 10^9-slot run holds nothing but the live set. Batch runs always
  /// keep per-job results.
  bool keep_job_results = true;

  /// Throws std::invalid_argument when any field is out of range or the
  /// legacy collision_detection ablation is combined with a non-ternary
  /// feedback model. Called by the Simulation ctor.
  void validate() const;
};

/// Optional per-slot tap for tests and experiment harnesses: called after
/// each slot resolves with the record and the raw transmissions.
using SlotObserver = std::function<void(
    const SlotRecord& record, std::span<const Transmission> transmissions)>;

/// A stepping simulation. Most callers use `run()`; tests use the stepping
/// API to inspect protocol state mid-flight (e.g. the Lemma 7 agreement
/// invariant).
class Simulation {
 public:
  /// Builds the simulation. The instance is normalized (sorted by release).
  /// `jammer` may be null (no adversary).
  Simulation(workload::Instance instance, const ProtocolFactory& factory,
             SimConfig config, std::unique_ptr<Jammer> jammer = nullptr);

  /// Streaming mode (DESIGN.md §6j): jobs are pulled from `arrivals` one at
  /// a time (nondecreasing release order, drawn from the dedicated "ARRV"
  /// child stream of config.seed) and retired jobs are folded into
  /// SimResult::stream incrementally, with the engine's arrays compacted so
  /// memory is bounded by the live set. Requires config.horizon > 0 (an
  /// open-ended stream has no max_deadline to default to). Job ids are
  /// assigned in arrival order, so a VectorArrivals over a normalized
  /// instance produces results bit-identical to the batch ctor on that
  /// instance (pinned in tests/test_fast_forward.cpp).
  Simulation(std::unique_ptr<ArrivalProcess> arrivals,
             const ProtocolFactory& factory, SimConfig config,
             std::unique_ptr<Jammer> jammer = nullptr);

  ~Simulation();
  Simulation(Simulation&&) noexcept;
  Simulation& operator=(Simulation&&) noexcept;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Simulates one slot (or fast-forwards across an idle gap to the next
  /// release). Returns false once the run is complete — all jobs retired or
  /// the horizon reached.
  bool step();

  /// Slot about to be simulated next.
  [[nodiscard]] Slot now() const noexcept;

  /// True when the run is complete.
  [[nodiscard]] bool finished() const noexcept;

  /// Installs a per-slot observer (replaces any previous one).
  void set_observer(SlotObserver observer);

  /// Ids of currently live jobs (release reached, not yet retired).
  [[nodiscard]] std::vector<JobId> live_jobs() const;

  /// The protocol instance driving job `id`; null when the job is not live.
  /// Tests use this (with dynamic_cast) to check protocol invariants.
  [[nodiscard]] Protocol* protocol(JobId id) noexcept;

  /// Runs to completion and returns the collected results. May be called
  /// after any number of step()s.
  SimResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: build, run to completion, return results.
SimResult run(workload::Instance instance, const ProtocolFactory& factory,
              SimConfig config, std::unique_ptr<Jammer> jammer = nullptr);

/// Convenience for streaming mode: build from an arrival process, run to
/// the horizon, return results (see the streaming Simulation ctor).
SimResult run_stream(std::unique_ptr<ArrivalProcess> arrivals,
                     const ProtocolFactory& factory, SimConfig config,
                     std::unique_ptr<Jammer> jammer = nullptr);

}  // namespace crmd::sim
