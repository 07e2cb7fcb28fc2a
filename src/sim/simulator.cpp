#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sim/multichannel.hpp"
#include "util/arena.hpp"

namespace crmd::sim {

void Engine::resolve_channel(Channel& ch) {
  ch.truth = resolve_slot(ch.tx);
  ch.capture_winner = kNoJob;
  ch.jammed = false;
  SlotFeedback& fb = ch.truth;
  if (ch.freeze > 0) {
    --ch.freeze;
    fb.outcome = SlotOutcome::kNoise;
    fb.message.reset();
    ++metrics.collision_cost_slots;
    CRMD_TRACE(config.tracer, obs::EventKind::kCostSlot, now, kNoJob,
               ch.freeze, static_cast<std::int64_t>(ch.tx.size()), 0.0,
               "cost");
  } else {
    if (config.feedback.kind == FeedbackKind::kCapture &&
        config.feedback.alpha > 0.0 && ch.tx.size() >= 2) {
      // One winner survives a k-way collision with probability
      // p_k = alpha^(k-1); the winner is drawn uniformly. Both draws come
      // from the dedicated cap_rng stream, taken only on this path, so
      // alpha = 0 leaves every other stream untouched.
      const double p_win = std::pow(
          config.feedback.alpha, static_cast<double>(ch.tx.size() - 1));
      if (cap_rng.bernoulli(p_win)) {
        const std::size_t idx = static_cast<std::size_t>(
            cap_rng.below(static_cast<std::uint64_t>(ch.tx.size())));
        fb.outcome = SlotOutcome::kSuccess;
        fb.message = ch.tx[idx].message;
        ch.capture_winner = ch.tx[idx].job;
      }
    }
    if (jammer != nullptr) {
      const Message* msg = fb.message ? &*fb.message : nullptr;
      if (jammer->wants_jam(now, fb.outcome, msg) &&
          jam_rng.bernoulli(jammer->p_jam())) {
        fb.outcome = SlotOutcome::kNoise;
        fb.message.reset();
        ch.jammed = true;
        ch.capture_winner = kNoJob;  // the jam stomped the captured success
      }
    }
    // A perceived collision — genuine, capture-lost, or jam-created —
    // freezes the channel for the next cost-1 slots. Frozen slots never
    // re-arm, so a burst costs `cost` slots total, not a cascade.
    if (config.collision_cost > 1 && fb.outcome == SlotOutcome::kNoise) {
      ch.freeze = config.collision_cost - 1;
    }
  }
  if (ch.capture_winner != kNoJob) {
    // The winner hears its own success: the listeners' view.
    radio[ix(ch.capture_winner)] = 0;
    ++metrics.capture_wins;
    CRMD_TRACE(config.tracer, obs::EventKind::kCaptureWin, now,
               ch.capture_winner, static_cast<std::int64_t>(ch.tx.size()),
               0, config.feedback.alpha, "capture");
  }

  // The feedback model projects the true outcome into a listener view and
  // a transmitter view, equal where transmitters perceive nothing
  // different. O(1), no allocation.
  SlotFeedback& listener = ch.view[0];
  SlotFeedback& transmitter = ch.view[1];
  listener = fb;
  transmitter = fb;
  switch (config.feedback.kind) {
    case FeedbackKind::kTernary:
      break;
    case FeedbackKind::kBinaryAck:
      // Listeners hear nothing, ever; transmitters get the true outcome
      // (their own success, or noise when their transmission failed).
      listener.outcome = SlotOutcome::kSilence;
      listener.message.reset();
      break;
    case FeedbackKind::kCollisionAsSilence:
      // Empty and collided slots are indistinguishable for everyone —
      // including the transmitters, who get no failure ACK.
      if (fb.outcome == SlotOutcome::kNoise) {
        listener.outcome = SlotOutcome::kSilence;
        listener.message.reset();
        transmitter = listener;
      }
      break;
    case FeedbackKind::kNoisy:
      // One seeded flip draw per simulated slot; on a flip every observer
      // hears the same one-step-degraded outcome.
      if (config.feedback.eps > 0.0 &&
          fb_rng.bernoulli(config.feedback.eps)) {
        listener = degrade_feedback(fb);
        transmitter = listener;
        ++metrics.feedback_flips;
      }
      break;
    case FeedbackKind::kCapture:
      // On a captured success, listeners (and the winner, whose kSent mark
      // was cleared above) hear the success; the k-1 losers
      // perceive noise — their own signal drowned the broadcast out at
      // their radio. Without a capture win the channel is exactly ternary.
      if (ch.capture_winner != kNoJob) {
        transmitter.outcome = SlotOutcome::kNoise;
        transmitter.message.reset();
      }
      break;
    case FeedbackKind::kUnawareNoCd:
      // Listeners perceive noisy slots as silent; transmitters still
      // learn their failure (ACK-style).
      if (fb.outcome == SlotOutcome::kNoise) {
        listener.outcome = SlotOutcome::kSilence;
        listener.message.reset();
      }
      break;
  }
}

std::string fast_forward_usage() { return "expected off | on | validate"; }

std::optional<FastForward> parse_fast_forward_spec(const std::string& spec,
                                                   std::ostream& diag) {
  if (spec == "off") {
    return FastForward::kOff;
  }
  if (spec == "on") {
    return FastForward::kOn;
  }
  if (spec == "validate") {
    return FastForward::kValidate;
  }
  diag << "error: bad --fast-forward spec '" << spec
       << "': " << fast_forward_usage() << '\n';
  return std::nullopt;
}

void SimConfig::validate() const {
  faults.validate();
  feedback.validate();
  if (collision_cost < 1) {
    throw std::invalid_argument(
        "SimConfig: collision_cost must be >= 1, got " +
        std::to_string(collision_cost));
  }
  if (multichannel.channels < 1 || multichannel.channels > 256) {
    throw std::invalid_argument(
        "SimConfig: multichannel.channels must be in [1, 256], got " +
        std::to_string(multichannel.channels));
  }
  if (multichannel.migrate_after < 1) {
    throw std::invalid_argument(
        "SimConfig: multichannel.migrate_after must be >= 1, got " +
        std::to_string(multichannel.migrate_after));
  }
  if (multichannel.channels > 1) {
    if (feedback.kind == FeedbackKind::kNoisy ||
        feedback.kind == FeedbackKind::kCapture ||
        feedback.kind == FeedbackKind::kUnawareNoCd) {
      throw std::invalid_argument(
          "SimConfig: multichannel composes only with the ternary, "
          "binary_ack, and collision_as_silence feedback models (v1 scope, "
          "DESIGN.md §6j)");
    }
  }
  if (stream_compact < 1) {
    throw std::invalid_argument(
        "SimConfig: stream_compact must be >= 1, got " +
        std::to_string(stream_compact));
  }
}

bool SimConfig::common_view() const noexcept {
  if (multichannel.channels != 1 || faults.any()) {
    return false;
  }
  switch (feedback.kind) {
    case FeedbackKind::kTernary:
    case FeedbackKind::kCollisionAsSilence:
    case FeedbackKind::kNoisy:
      return true;
    case FeedbackKind::kCapture:
      return feedback.alpha == 0.0;
    case FeedbackKind::kBinaryAck:
    case FeedbackKind::kUnawareNoCd:
      return false;
  }
  return false;
}

Simulation::Simulation(workload::Instance instance,
                       const ProtocolFactory& factory, SimConfig config,
                       std::unique_ptr<Jammer> jammer)
    : impl_(std::make_unique<Engine>()) {
  instance.normalize();
  instance.validate();

  // A VectorArrivals replay of the normalized instance. Every instance job
  // gets its JobResult up front, so one released at or past the horizon,
  // which never enters, keeps zero counters.
  Engine& s = *impl_;
  s.batch = true;
  config.keep_job_results = true;
  const Slot horizon =
      config.horizon > 0 ? config.horizon : instance.max_deadline();
  const std::size_t n = instance.size();
  s.job_results.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    JobResult& r = s.job_results[i];
    r.id = static_cast<JobId>(i);
    r.release = instance.jobs[i].release;
    r.deadline = instance.jobs[i].deadline;
  }
  s.start(std::move(config), std::move(jammer),
          std::make_unique<VectorArrivals>(std::move(instance.jobs)), factory,
          horizon);
  s.for_each_job_array([n](auto& v) { v.reserve(n); });
}

Simulation::Simulation(std::unique_ptr<ArrivalProcess> arrivals,
                       const ProtocolFactory& factory, SimConfig config,
                       std::unique_ptr<Jammer> jammer)
    : impl_(std::make_unique<Engine>()) {
  if (arrivals == nullptr) {
    throw std::invalid_argument("Simulation: arrival process must be non-null");
  }
  if (config.horizon <= 0) {
    throw std::invalid_argument(
        "Simulation: streaming mode requires an explicit horizon > 0 (an "
        "open-ended stream has no max_deadline to default to)");
  }
  const Slot horizon = config.horizon;
  impl_->start(std::move(config), std::move(jammer), std::move(arrivals),
               factory, horizon);
}

Simulation::~Simulation() = default;
Simulation::Simulation(Simulation&&) noexcept = default;
Simulation& Simulation::operator=(Simulation&&) noexcept = default;

Slot Simulation::now() const noexcept { return impl_->now; }

bool Simulation::finished() const noexcept { return impl_->finished; }

void Simulation::set_observer(SlotObserver observer) {
  impl_->observer = std::move(observer);
}

std::vector<JobId> Simulation::live_jobs() const { return impl_->live; }

Protocol* Simulation::protocol(JobId id) noexcept {
  Engine& s = *impl_;
  if (id < s.base_id || s.ix(id) >= s.job_count() ||
      s.live_flag[s.ix(id)] == 0) {
    return nullptr;
  }
  return s.proto[s.ix(id)];
}

bool Simulation::step() {
  Engine& s = *impl_;
  if (s.finished) {
    return false;
  }

  // Fast-forward across idle gaps: nothing can happen on the channel while
  // no job is live. The lookahead holds only jobs released before the
  // horizon, so no gap is skipped toward one that never enters.
  if (s.live.empty()) {
    if (!s.pending_spec) {
      s.finished = true;
      return false;
    }
    const Slot next_release = s.pending_spec->release;
    if (next_release > s.now) {
      // A pending collision-cost freeze elapses across the skipped gap —
      // nobody is live to observe the frozen slots, so they are not
      // simulated (and not counted as cost slots).
      const Slot gap = next_release - s.now;
      for (Engine::Channel& ch : s.chans) {
        ch.freeze = std::max<Slot>(0, ch.freeze - gap);
      }
      s.metrics.slots_skipped += gap;
      s.now = next_release;
    }
  }

  if (s.now >= s.horizon) {
    s.finished = true;
    return false;
  }

  // Activate arrivals.
  while (s.pending_spec && s.pending_spec->release <= s.now) {
    const workload::JobSpec spec = *s.pending_spec;
    const JobId id = s.next_id++;
    if (spec.deadline > s.now) {
      s.append_job(id, spec);
    } else {
      // Window already over (degenerate cases); never activates, but it
      // still counts as a job that entered (and failed).
      JobResult result;
      result.id = id;
      result.release = spec.release;
      result.deadline = spec.deadline;
      s.record(result);
    }
    s.pull_next();
  }

  // Wake the parked jobs whose promise expires or deadline arrives now, so
  // the deadline scan below only ever retires awake jobs.
  s.wake_due();

  // Retire jobs whose deadline has arrived (window is [release, deadline)).
  // The min_deadline cache makes the scan conditional: while the earliest
  // live deadline is still in the future nothing can expire, so the
  // per-slot O(live) sweep collapses to one comparison. The cache is a
  // lower bound (stale-low after other retirements), so a triggered scan
  // may find nothing — it then recomputes the exact minimum.
  if (s.min_deadline <= s.now) {
    s.to_retire.clear();
    Slot new_min = Engine::kMaxSlot;
    for (const JobId id : s.live) {
      const Slot d = s.deadline[s.ix(id)];
      if (d <= s.now) {
        s.to_retire.push_back(id);
      } else {
        new_min = std::min(new_min, d);
      }
    }
    for (const JobId id : s.to_retire) {
      s.retire(id, s.now);
    }
    s.min_deadline = new_min;
    if (s.live.empty()) {
      // All live jobs expired this slot; loop again from the top next call.
      return !s.finished;
    }
  }

  // Event-driven fast-forward (DESIGN.md §6j): park the jobs that hold a
  // dormancy promise and, when none is left awake, jump across the
  // provably silent run. Checked after activation/retirement (so the live
  // set is current) and before the fault phase (fast-forward and faults are
  // mutually exclusive; see Engine::ff_enabled).
  if (s.ff_enabled && s.park_or_skip()) {
    return !s.finished;
  }

  // Fault phase: advance each live job's crash/stall/skew state. Dead jobs
  // retire immediately (the channel cannot tell a dead job from an absent
  // one); dark jobs stay live but neither transmit nor listen this slot —
  // the decision and feedback passes read that from the job's dark_until.
  const std::int64_t faults_before =
      s.injector ? s.injector->total_injected() : 0;
  if (s.injector != nullptr) {
    s.to_retire.clear();
    std::int64_t dark_this_slot = 0;
    for (const JobId id : s.live) {
      switch (s.injector->tick(s.faults[s.ix(id)], id, s.now)) {
        case FaultInjector::JobHealth::kHealthy:
          break;
        case FaultInjector::JobHealth::kDark:
          ++dark_this_slot;
          break;
        case FaultInjector::JobHealth::kDead:
          s.to_retire.push_back(id);
          break;
      }
    }
    s.metrics.dark_job_slots += dark_this_slot;
    for (const JobId id : s.to_retire) {
      s.retire(id, s.now);
    }
    if (s.live.empty()) {
      return !s.finished;
    }
  }

  s.pipeline(s, faults_before);

  ++s.now;
  if (s.live.empty() && !s.pending_spec) {
    s.finished = true;
  }
  return !s.finished;
}

SimResult Simulation::finish() {
  while (step()) {
  }
  Engine& s = *impl_;
  // Fold the jobs still live at the horizon; they never retire.
  for (std::size_t i = 0; i < s.live_flag.size(); ++i) {
    if (s.live_flag[i] != 0) {
      s.live_flag[i] = 0;
      s.destroy_at(i);
      s.fold(i, s.now);
    }
  }
  s.live.clear();
  SimResult result;
  result.jobs = std::move(s.job_results);
  result.stream = s.stream;
  result.metrics = s.metrics;
  if (s.injector != nullptr) {
    const FaultInjector& inj = *s.injector;
    result.metrics.faults_injected = inj.total_injected();
    result.metrics.feedback_corruptions = inj.count(FaultKind::kFeedbackCorrupt);
    result.metrics.feedback_losses = inj.count(FaultKind::kFeedbackLoss);
    result.metrics.clock_skew_events = inj.count(FaultKind::kClockSkew);
    result.metrics.crashes = inj.count(FaultKind::kCrash);
    result.metrics.restarts = inj.count(FaultKind::kRestart);
  }
  // Feed the process-wide profiler: every run, whoever drives it, charges
  // "simulation" from construction to here and adds its slots.
  obs::RunProfiler& prof = obs::global_profiler();
  prof.add_phase_ms("simulation",
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - s.built)
                        .count());
  prof.add_slots(result.metrics.slots_simulated);
  prof.add_fast_forward_slots(result.metrics.fast_forward_slots);
  prof.note_live_peak(result.metrics.live_peak);
  return result;
}

SimResult run(workload::Instance instance, const ProtocolFactory& factory,
              SimConfig config, std::unique_ptr<Jammer> jammer) {
  Simulation sim(std::move(instance), factory, config, std::move(jammer));
  return sim.finish();
}

SimResult run_stream(std::unique_ptr<ArrivalProcess> arrivals,
                     const ProtocolFactory& factory, SimConfig config,
                     std::unique_ptr<Jammer> jammer) {
  Simulation sim(std::move(arrivals), factory, config, std::move(jammer));
  return sim.finish();
}

}  // namespace crmd::sim