#pragma once

#include <cstdint>

#include "sim/channel.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

/// \file faults.hpp
/// Composable fault injection: seeded, deterministic perturbations applied
/// *between* channel resolution and protocol observation.
///
/// The paper's model (§1.1) assumes perfect ternary feedback, perfectly
/// synchronized slots, and jobs that never die; its only stress is the §3
/// stochastic jammer. Related work weakens exactly these assumptions
/// (unreliable feedback channels in Jiang–Zheng, weakened collision models
/// in Biswas–Chakraborty–Young), and a production system must know how each
/// protocol *degrades* when they crack. A `FaultPlan` describes per-run
/// fault rates; the `FaultInjector` turns the plan into per-job, per-slot
/// perturbations drawn from dedicated RNG streams so that
///   (a) a run replays bit-identically from `(seed, FaultPlan)`, and
///   (b) an all-zero plan is a provable no-op: no stream is ever advanced,
///       so results are bit-identical to a fault-free run.
///
/// Ownership: the injector owns the plan, the master fault stream and the
/// counters, and emits each fault it injects to the run's tracer; the
/// caller owns each job's fault state (`FaultInjector::JobFaults`: the
/// job's own stream, its skew and its stall/crash status) and hands it to
/// the inline per-job-slot calls tick() and perceive(). The engine keeps
/// that state in its per-job arrays, so there is no lookup into an id-keyed
/// store per job-slot, and a streaming run compacts it with everything else
/// it holds per job.
///
/// Fault taxonomy (each maps to one paper assumption):
///   feedback corruption — ternary feedback is exact. A corrupted listener
///       perceives a *degraded* outcome (success→noise, noise↔silence);
///       faults never fabricate message content.
///   feedback loss — listeners hear every slot. A lossy listener perceives
///       silence regardless of the true outcome (its radio missed the slot).
///   clock skew — slots are perfectly synchronized. A skewed job's
///       perceived slot index slips one slot *ahead* per skew event and the
///       lead accumulates, directly stressing PUNCTUAL's round grid and
///       ALIGNED's phase alignment (relative misalignment is what matters,
///       so forward-only drift loses no generality and keeps perceived
///       time monotone).
///   crash/stall/restart — jobs live until their deadline. A crashed job
///       goes dark — neither transmits nor hears feedback — for a bounded
///       stall or permanently.
///
/// Budgeted/adaptive *jamming* adversaries stay in jammer.hpp (they perturb
/// the channel itself, not a listener's perception).

namespace crmd::obs {
class Tracer;
}  // namespace crmd::obs

namespace crmd::sim {

/// Kinds of injected fault events (counted in SimMetrics, and emitted as
/// obs::EventKind::kFault trace events).
enum class FaultKind : std::uint8_t {
  kFeedbackCorrupt,  ///< a listener perceived a degraded outcome
  kFeedbackLoss,     ///< a listener heard silence instead of the truth
  kClockSkew,        ///< a job's perceived slot index slipped one ahead
  kCrash,            ///< a job went dark (stall or permanent)
  kRestart,          ///< a stalled job came back
};

/// Human-readable fault-kind name.
[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// Declarative description of every fault source in a run. All rates are
/// per live job per slot; 0 disables the source. The default plan injects
/// nothing.
struct FaultPlan {
  /// ε: probability a listener's perceived outcome is degraded
  /// (success→noise, noise→silence, silence→noise).
  double feedback_corrupt_rate = 0.0;

  /// Probability a listener hears nothing for a slot (perceives silence).
  double feedback_loss_rate = 0.0;

  /// Probability a job's perceived clock slips one slot ahead (the lead
  /// accumulates for the rest of its window).
  double clock_skew_rate = 0.0;

  /// Probability a live job crashes this slot.
  double crash_rate = 0.0;

  /// Fraction of crashes that are permanent (the job never restarts);
  /// the rest stall for a uniform duration in [stall_min, stall_max].
  double crash_permanent_frac = 0.0;

  /// Stall-duration bounds (slots) for non-permanent crashes.
  Slot stall_min = 8;
  Slot stall_max = 64;

  /// True when any fault source is enabled.
  [[nodiscard]] bool any() const noexcept;

  /// Throws std::invalid_argument (with the offending field named) when a
  /// rate is outside [0, 1] or the stall bounds are invalid.
  void validate() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Executes a FaultPlan for one simulation. The injector owns the plan,
/// the master fault stream, the per-kind counters and the tracer; the
/// caller owns each job's JobFaults and passes it to every tick() and
/// perceive() for that job. Each job draws from its own child
/// stream of the master stream, so per-job fault randomness is stable under
/// changes to the number of jobs, and replays from `(seed, plan)` are exact.
class FaultInjector {
 public:
  /// A job's fault status for the current slot.
  enum class JobHealth : std::uint8_t {
    kHealthy,  ///< participates normally
    kDark,     ///< stalled: neither transmits nor hears feedback this slot
    kDead,     ///< permanently crashed: the simulator retires it
  };

  /// One job's fault state, owned by the caller. Start it from job().
  struct JobFaults {
    util::Rng rng{0};  ///< the job's own fault stream
    /// Accumulated perceived-clock lead (slots). Stable within a slot once
    /// tick() ran.
    Slot skew = 0;
    /// Dark while the current slot < dark_until; kNoSlot means not stalled.
    /// After tick(), a live job is dark exactly when this is not kNoSlot.
    Slot dark_until = kNoSlot;
    bool dead = false;  ///< crashed for good: tick() returns kDead from now on
  };

  /// `seed` is the simulation master seed; the injector derives its own
  /// stream family from it (never shared with protocol or jammer streams).
  FaultInjector(const FaultPlan& plan, std::uint64_t seed);

  /// The fault state job `id` starts with: healthy, no skew, and the
  /// child stream `id + 1` of the master fault stream.
  [[nodiscard]] JobFaults job(JobId id) const noexcept {
    JobFaults faults;
    faults.rng = master_.child(static_cast<std::uint64_t>(id) + 1);
    return faults;
  }

  /// Advances job `id`'s crash/stall/skew state for `slot`. Called exactly
  /// once per live job per simulated slot, before the decision phase.
  JobHealth tick(JobFaults& jf, JobId id, Slot slot) {
    if (jf.dead) {
      return JobHealth::kDead;
    }
    if (jf.dark_until != kNoSlot) {
      if (slot < jf.dark_until) {
        return JobHealth::kDark;
      }
      jf.dark_until = kNoSlot;
      record(slot, FaultKind::kRestart, id);
    }
    // Draw order is fixed (crash, then skew) so replays are exact.
    if (jf.rng.bernoulli(plan_.crash_rate)) {
      return crash(jf, id, slot);
    }
    if (jf.rng.bernoulli(plan_.clock_skew_rate)) {
      ++jf.skew;
      record(slot, FaultKind::kClockSkew, id);
    }
    return JobHealth::kHealthy;
  }

  /// Filters the feedback job `id` is about to observe; applies loss and
  /// corruption draws. Called once per *hearing* (non-dark) job per slot.
  /// Returns `truth` itself when no fault hits, else the injector's
  /// scratch, which the next perceive() call overwrites.
  [[nodiscard]] const SlotFeedback& perceive(JobFaults& jf, JobId id, Slot slot,
                                             const SlotFeedback& truth) {
    // Draw order is fixed (loss, then corruption) so replays are exact.
    if (jf.rng.bernoulli(plan_.feedback_loss_rate)) {
      record(slot, FaultKind::kFeedbackLoss, id);
      scratch_ = SlotFeedback{};  // heard nothing: silence, no message
      return scratch_;
    }
    if (jf.rng.bernoulli(plan_.feedback_corrupt_rate)) {
      record(slot, FaultKind::kFeedbackCorrupt, id);
      // Same one-step never-fabricate degradation the noisy feedback model
      // applies channel-wide (channel.hpp), so the two layers compose.
      scratch_ = degrade_feedback(truth);
      return scratch_;
    }
    return truth;
  }

  /// The plan this injector executes.
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Total faults injected so far (all kinds).
  [[nodiscard]] std::int64_t total_injected() const noexcept {
    return total_;
  }

  /// Per-kind counters.
  [[nodiscard]] std::int64_t count(FaultKind kind) const noexcept;

  /// Optional tracing session: every injection also emits an
  /// obs::EventKind::kFault event (slot, job, a = FaultKind) — the one
  /// per-fault record a run keeps (null = off; set by the simulator from
  /// SimConfig::tracer).
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

 private:
  // The rare paths stay out of line: a crash (after its draw hit) and
  // counting/tracing one fault.
  JobHealth crash(JobFaults& jf, JobId id, Slot slot);
  void record(Slot slot, FaultKind kind, JobId job);

  FaultPlan plan_;
  util::Rng master_;
  SlotFeedback scratch_;  // perceive()'s perturbed feedback
  std::int64_t counts_[5] = {0, 0, 0, 0, 0};
  std::int64_t total_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace crmd::sim
