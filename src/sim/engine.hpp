#pragma once

// Internal header: the engine state of one Simulation and its slot pipeline
// (DESIGN.md §6e). Not part of the library's interface. simulator.cpp
// includes it, and so does every translation unit that calls
// make_arena_factory<P>: that call instantiates step_slot<P>, the pipeline
// with P's per-slot calls bound directly (and inlined when P keeps them
// small header bodies; tools/check_inlining.py checks that it does).

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/arrivals.hpp"
#include "sim/channel.hpp"
#include "sim/faults.hpp"
#include "sim/jammer.hpp"
#include "sim/metrics.hpp"
#include "sim/multichannel.hpp"
#include "sim/protocol.hpp"
#include "sim/simulator.hpp"
#include "sim/wake_heap.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "workload/instance.hpp"

namespace crmd::sim {

// Data-oriented engine layout (DESIGN.md §6e). Per-job state is a
// structure-of-arrays scanned every slot (release/deadline/protocol
// pointer/live flag, the success slot and the per-job counters the decision
// loop bumps), indexed by ix(id) = id - base_id. Every job enters one way:
// the arrival process hands over one job at a time (a one-job lookahead in
// `pending_spec`), and the job is appended to the arrays and its protocol
// built and activated at its release. A job leaving the run is folded into
// a JobResult from the arrays, and the dead prefix of the arrays is erased
// — bumping base_id — once it crosses the compaction threshold, so memory
// is bounded by the live set. The batch ctor is a VectorArrivals replay of
// its normalized instance. `live_pos` gives O(1) swap-removal from the live
// list; `radio` is per-slot scratch that only the ticking jobs write, so
// no per-slot cost scales with the total job count.
// All of this is bookkeeping only: the order of RNG child derivation,
// ticks, decisions, feedback, and retirement is exactly the historical
// order, so results stay bit-identical (pinned in
// tests/test_determinism_golden.cpp).
struct Engine {
  static constexpr Slot kMaxSlot = std::numeric_limits<Slot>::max();

  /// What a sleeper hears, whatever the channel did (DESIGN.md §6k).
  static constexpr SlotFeedback kSilent{};

  // Exact contention arithmetic (see slot_contention): probabilities that
  // are multiples of 2^-32 are summed as integers in those units.
  static constexpr double kUnitsPerOne = 4294967296.0;  // 2^32
  static constexpr std::uint64_t kExactUnits = std::uint64_t{1} << 52;
  static constexpr std::uint64_t kInexact =
      std::numeric_limits<std::uint64_t>::max();

  // `p` in units of 2^-32 when it is such a multiple in [0, 1] (scaling by a
  // power of two is exact), else kInexact.
  static std::uint64_t exact_units(double p) {
    const double scaled = p * kUnitsPerOne;
    if (!(scaled >= 0.0 && scaled <= kUnitsPerOne)) {
      return kInexact;  // out of range or NaN
    }
    const auto units = static_cast<std::uint64_t>(scaled);
    return static_cast<double>(units) == scaled ? units : kInexact;
  }

  SimConfig config;
  ProtocolFactory factory;
  /// The slot pipeline start() picked for the run: the factory's
  /// step_slot<P> when it has one, else step_slot<Protocol>.
  SlotPipeline pipeline = nullptr;
  util::Rng master{0};
  std::unique_ptr<Jammer> jammer;
  util::Rng jam_rng{0};
  /// Dedicated stream for the noisy feedback model's per-slot flip draws.
  /// Advanced only when the model is kNoisy with eps > 0, so every other
  /// model is bit-identical to the pre-model engine.
  util::Rng fb_rng{0};
  /// Dedicated stream for the capture model's winner draws. Advanced only
  /// when the model is kCapture with alpha > 0 on a slot with >= 2
  /// transmitters, so capture:0 is bit-identical to ternary.
  util::Rng cap_rng{0};
  /// Dedicated stream for arrival draws ("ARRV").
  util::Rng arr_rng{0};
  std::unique_ptr<ArrivalProcess> arrivals;
  /// One-job lookahead; nullopt = no job is left before the horizon.
  std::optional<workload::JobSpec> pending_spec;
  /// Global id of arrays[0] (the compaction offset).
  JobId base_id = 0;
  /// Next global id to assign.
  JobId next_id = 0;
  /// Nondecreasing-release enforcement for arrival processes.
  Slot last_release = 0;
  /// arrays[0..dead_prefix) are all retired (never revived).
  std::size_t dead_prefix = 0;
  /// With keep_job_results: each folded job's JobResult at its id. Ids are
  /// dense from 0 and each job is folded exactly once.
  std::vector<JobResult> job_results;
  StreamSummary stream;
  /// Built by the batch ctor: every instance job has a JobResult, even one
  /// released past the horizon; the stream summary stays empty; protocols
  /// live in the arena when the factory allows it.
  bool batch = false;
  /// When the Simulation was built; finish() charges the time since to the
  /// global profiler's "simulation" phase.
  std::chrono::steady_clock::time_point built =
      std::chrono::steady_clock::now();

  /// Capabilities stamped into every JobInfo (derived once from the model).
  ChannelCaps caps;
  /// The run's shared state (JobInfo::run); null unless the run has a
  /// common view (SimConfig::common_view).
  std::unique_ptr<RunState> run_state;
  std::unique_ptr<FaultInjector> injector;  // null when the plan is empty

  // --- Per-job state (structure-of-arrays, indexed by ix(id)). ---
  std::vector<Slot> release;
  std::vector<Slot> deadline;
  std::vector<Protocol*> proto;        // null once retired
  std::vector<std::uint8_t> live_flag;
  std::vector<std::uint32_t> live_pos;  // index into `live`; valid while live
  std::vector<Slot> success_slot;       // kNoSlot until credited
  // Per-job counters bumped in the decision loop; folded into the job's
  // JobResult once, when it leaves the run. Its live slots need no
  // counter: a live job ticks, or is parked, in every slot from its
  // release until it leaves (fold).
  std::vector<std::int64_t> dark_slot_count;
  std::vector<std::int64_t> tx_count;
  // Radio-energy accounting (DESIGN.md §6k): slots spent listening (awake
  // without transmitting). Sleep slots are the rest of the live slots;
  // parked jobs and fast-forwarded spans add nothing here — a dormant span
  // is exactly a sleep span, so those slots batch-account zero awake slots,
  // which is what makes the energy counters bit-identical across
  // --fast-forward modes.
  std::vector<std::int64_t> listen_count;
  // Last observed radio state (1 = awake) per job, for kRadioSleep /
  // kRadioWake transition events, so read and written only when a tracer
  // is attached. Jobs activate awake (radio on at power-up); parking puts
  // a job to sleep at the slot it parks, exactly where slot-by-slot
  // simulation would.
  std::vector<std::uint8_t> prev_awake;
  // Each job's channel (all zeros when k = 1) and collision count (read
  // only by migration).
  std::vector<std::uint8_t> chan;
  std::vector<std::uint32_t> coll_count;
  // Fast-forward park state (DESIGN.md §6j): a live job is *parked* iff
  // ff_until > now — it holds a dormancy promise up to ff_until and the
  // decision and feedback loops skip it. ff_prob is the promised
  // constant probability of a parked job and this slot's declaration of an
  // awake one, so the two together give every live job's contribution to
  // the slot's contention without a virtual call. Only fast-forward reads
  // ff_prob, so only a run that may park stores it.
  std::vector<Slot> ff_until;
  std::vector<double> ff_prob;
  // Each job's fault state (faults.hpp): its fault stream, skew and
  // stall/crash status. Filled only when the run has an injector (empty
  // otherwise); a live job is dark this slot iff, after the fault phase's
  // tick, its dark_until is set.
  std::vector<FaultInjector::JobFaults> faults;

  // Backing store for the protocol objects. `arena_owned` is true only for
  // batch runs whose factory is arena-aware: an arena never frees, so an
  // open-ended stream must use heap objects. Otherwise `proto` holds plain
  // owning pointers released with `delete`.
  util::MonotonicArena arena;
  bool arena_owned = false;

  std::vector<JobId> live;        // ids of live jobs
  Slot now = 0;
  Slot horizon = 0;
  bool finished = false;
  /// True when this run qualifies for fast-forward at all (computed once;
  /// see SimConfig::fast_forward for the exclusions).
  bool ff_enabled = false;
  /// Lower bound on the earliest live deadline; lets the deadline-retire
  /// scan be skipped entirely while min_deadline > now. May go stale *low*
  /// after retirements (which only triggers a harmless extra scan), never
  /// stale high — activation refreshes it and triggered scans recompute it
  /// exactly — so results are provably identical.
  Slot min_deadline = kMaxSlot;

  // Per-job wakeup scheduling (fast-forward only). Parked jobs sit in a
  // min-heap (wake_heap.hpp) keyed by their wakeup slot
  // min(ff_until, deadline) and holding their global id — global, so
  // entries survive streaming compaction. Jobs due in the same slot wake in
  // any order: park_or_skip sorts `awake_jobs` by live position before
  // anything reads it. A parked job leaves the heap only by waking:
  // wakeups run before the deadline scan, so a parked job is never
  // retired. While any job is parked, `awake_jobs` holds the live jobs
  // that are not (possibly with retired ids, pruned lazily); while none
  // is, it is empty and every loop runs over `live` exactly as without
  // fast-forward.
  WakeHeap wake_heap;
  std::vector<JobId> awake_jobs;
  std::size_t parked = 0;
  // Sum of the parked jobs' promised probabilities in units of 2^-32, and
  // how many of them are not such a multiple (see slot_contention()).
  std::uint64_t parked_units = 0;
  std::size_t parked_inexact = 0;

  SimMetrics metrics;
  SlotObserver observer;

  // Scratch buffers reused across slots. `radio` is job-indexed but
  // written per slot only at the entries of ticking jobs, so per-slot cost
  // tracks the live set.
  std::vector<JobId> to_retire;
  std::vector<JobId> done_jobs;  // reporting done() this slot, ticking order
  // A ticking job's radio this slot, set by its decision: kSent selects the
  // channel's transmitter view (Channel::view[1]), kAsleep the silence a
  // sleeper hears (DESIGN.md §6k), 0 is a listener.
  static constexpr std::uint8_t kSent = 1;
  static constexpr std::uint8_t kAsleep = 2;
  std::vector<std::uint8_t> radio;

  // One sub-channel (DESIGN.md §6j): its freeze state across slots plus
  // this slot's scratch. The paper's channel is the k = 1 case.
  struct Channel {
    std::vector<Transmission> tx;
    double contention = 0.0;  // C(t) over the jobs on this channel
    std::uint32_t live = 0;   // live jobs on this channel
    std::uint32_t awake = 0;  // of which radio on
    /// Remaining frozen slots of an armed collision cost (collision_cost - 1
    /// after each perceived collision); 0 on the paper's channel.
    Slot freeze = 0;
    SlotFeedback truth;    // true outcome (credited)
    SlotFeedback view[2];  // what a listener [0] and a transmitter [1] hear
    bool jammed = false;
    JobId capture_winner = kNoJob;
  };
  std::vector<Channel> chans;  // sized k

  [[nodiscard]] std::size_t ix(JobId id) const noexcept {
    return static_cast<std::size_t>(id - base_id);
  }

  [[nodiscard]] std::size_t job_count() const noexcept {
    return release.size();
  }

  // Calls `f` on every per-job array: the one list that reserving and
  // compaction share, so neither can miss an array. The fault state exists
  // only with an injector.
  template <typename F>
  void for_each_job_array(F&& f) {
    f(release);
    f(deadline);
    f(proto);
    f(live_flag);
    f(live_pos);
    f(success_slot);
    f(dark_slot_count);
    f(tx_count);
    f(listen_count);
    f(prev_awake);
    f(chan);
    f(coll_count);
    f(ff_until);
    f(ff_prob);
    f(radio);
    if (injector != nullptr) {
      f(faults);
    }
  }

  // Runs the protocol's destructor and releases (heap path) or abandons
  // (arena path — memory is reclaimed when the arena dies) its storage.
  void destroy_at(std::size_t i) noexcept {
    Protocol* p = proto[i];
    if (p == nullptr) {
      return;
    }
    proto[i] = nullptr;
    if (arena_owned) {
      p->~Protocol();
    } else {
      delete p;
    }
  }

  ~Engine() {
    for (std::size_t i = 0; i < proto.size(); ++i) {
      destroy_at(i);
    }
  }

  // Records the final result of a job that left the run: in the rolling
  // summary (not for batch runs) and, with keep_job_results, at its id.
  void record(const JobResult& r) {
    if (!batch) {
      stream.add(r);
    }
    if (config.keep_job_results) {
      if (r.id >= job_results.size()) {
        job_results.resize(static_cast<std::size_t>(r.id) + 1);
      }
      job_results[r.id] = r;
    }
  }

  // Folds job i as it leaves the run, retired or cut by the horizon, before
  // slot `left`: its per-job counters are final once it is no longer live.
  // It was live in every slot of [release, left) — activated at its
  // release, it ticks or is parked in each slot until it leaves — so
  // `left` is `now` for a job leaving before the slot pipeline (deadline,
  // crash, horizon) and `now + 1` for one leaving in its credit pass.
  void fold(std::size_t i, Slot left) {
    JobResult r;
    r.id = base_id + static_cast<JobId>(i);
    r.release = release[i];
    r.deadline = deadline[i];
    r.success = success_slot[i] != kNoSlot;
    r.success_slot = success_slot[i];
    r.transmissions = tx_count[i];
    r.live_slots = left - release[i];
    r.dark_slots = dark_slot_count[i];
    r.listen_slots = listen_count[i];
    record(r);
  }

  // Removes live job `id` before slot `left` (see fold).
  void retire(JobId id, Slot left) {
    const std::size_t i = ix(id);
    if (live_flag[i] == 0) {
      return;
    }
    CRMD_TRACE(config.tracer, obs::EventKind::kJobRetire, now, id,
               success_slot[i] != kNoSlot ? 1 : 0);
    live_flag[i] = 0;
    destroy_at(i);
    const std::uint32_t pos = live_pos[i];
    assert(pos < live.size() && live[pos] == id);
    const JobId moved = live.back();
    live[pos] = moved;
    live_pos[ix(moved)] = pos;
    live.pop_back();
    fold(i, left);
    if (i == dead_prefix) {
      maybe_compact();  // the dead prefix grew
    }
  }

  // Refills the one-job lookahead, enforcing the process contract (sane
  // windows, nondecreasing releases) and ending the stream at the horizon —
  // releases are nondecreasing, so once one job starts at or past the
  // horizon every later one does too.
  void pull_next() {
    pending_spec.reset();
    auto job = arrivals->next(arr_rng);
    if (!job) {
      return;
    }
    if (job->release < 0 || job->deadline <= job->release) {
      throw std::invalid_argument(
          "ArrivalProcess: jobs need release >= 0 and deadline > release");
    }
    if (job->release < last_release) {
      throw std::runtime_error(
          "ArrivalProcess: releases must be nondecreasing");
    }
    last_release = job->release;
    if (job->release >= horizon) {
      return;
    }
    pending_spec = job;
  }

  // Appends one job to the arrays, builds its protocol and activates it.
  // Ids are assigned in arrival order and each protocol draws from its own
  // master.child(id + 1) stream, so the same jobs give the same results
  // whatever process delivered them.
  void append_job(JobId id, const workload::JobSpec& spec) {
    JobInfo info;
    info.id = id;
    info.release = spec.release;
    info.deadline = spec.deadline;
    info.caps = caps;
    info.run = run_state.get();
    Protocol* p = arena_owned
                      ? factory.emplace(info, master.child(id + 1), arena)
                      : factory(info, master.child(id + 1)).release();
    p->set_tracer(config.tracer);
    release.push_back(spec.release);
    deadline.push_back(spec.deadline);
    proto.push_back(p);
    live_flag.push_back(1);
    live_pos.push_back(static_cast<std::uint32_t>(live.size()));
    success_slot.push_back(kNoSlot);
    live.push_back(id);
    if (parked > 0) {
      awake_jobs.push_back(id);
    }
    dark_slot_count.push_back(0);
    tx_count.push_back(0);
    listen_count.push_back(0);
    prev_awake.push_back(1);
    radio.push_back(0);
    ff_until.push_back(0);
    ff_prob.push_back(0.0);
    chan.push_back(static_cast<std::uint8_t>(
        shard_of(config.seed, id, config.multichannel.channels)));
    coll_count.push_back(0);
    if (injector != nullptr) {
      faults.push_back(injector->job(id));
    }
    min_deadline = std::min(min_deadline, spec.deadline);
    CRMD_TRACE(config.tracer, obs::EventKind::kJobActivate, now, id,
               spec.release, spec.deadline);
    p->on_activate(info);
  }

  // Erases the dead prefix of every per-job array once it is both large in
  // absolute terms (stream_compact) and at least half the arrays — each
  // compaction removes >= half, so the per-job cost is amortized O(1) and
  // steady-state memory is O(live + stream_compact).
  void maybe_compact() {
    while (dead_prefix < live_flag.size() && live_flag[dead_prefix] == 0) {
      ++dead_prefix;
    }
    if (dead_prefix < static_cast<std::size_t>(config.stream_compact) ||
        dead_prefix * 2 < live_flag.size()) {
      return;
    }
    const auto n = static_cast<std::ptrdiff_t>(dead_prefix);
    for_each_job_array([n](auto& v) { v.erase(v.begin(), v.begin() + n); });
    base_id += static_cast<JobId>(dead_prefix);
    dead_prefix = 0;
  }

  // Parks job `id` (index i) on the dormancy promise `span` made at `now`;
  // it wakes exactly at its heap key. A radio that was on goes to sleep
  // here, the slot where slot-by-slot simulation would emit the
  // transition.
  void park(JobId id, std::size_t i, const DormantSpan& span) {
    ff_until[i] = now + span.slots;
    ff_prob[i] = span.prob;
    wake_heap.push(std::min(ff_until[i], deadline[i]), id);
    ++parked;
    const std::uint64_t units = exact_units(span.prob);
    if (units == kInexact) {
      ++parked_inexact;
    } else {
      parked_units += units;
    }
    if (config.tracer != nullptr && prev_awake[i] != 0) {
      CRMD_TRACE(config.tracer, obs::EventKind::kRadioSleep, now, id,
                 now - release[i], 0, 0.0, "sleep");
      prev_awake[i] = 0;
    }
  }

  // Wakes every parked job whose heap key has arrived into `awake_jobs`.
  void wake_due() {
    wake_heap.pop_due(now, [this](JobId id) {
      const std::size_t i = ix(id);
      assert(live_flag[i] != 0);
      ff_until[i] = now;
      --parked;
      const std::uint64_t units = exact_units(ff_prob[i]);
      if (units == kInexact) {
        --parked_inexact;
      } else {
        parked_units -= units;
      }
      awake_jobs.push_back(id);
    });
  }

  // The slot's contention C(t) while jobs are parked: the parked jobs'
  // promised probabilities plus the declarations `ticking` cached in
  // ff_prob this slot, equal bit for bit to the live-order fold the
  // slot-by-slot engine computes. When every term is a multiple of 2^-32
  // and the total stays below 2^52 such units, every partial sum of any
  // order is an exactly representable double, so the fold equals the
  // integer sum. Otherwise it falls back to the live-order fold itself.
  [[nodiscard]] double slot_contention(
      const std::vector<JobId>& ticking) const {
    if (parked_inexact == 0) {
      std::uint64_t total = parked_units;
      bool exact = true;
      for (const JobId id : ticking) {
        const std::uint64_t units = exact_units(ff_prob[ix(id)]);
        if (units == kInexact) {
          exact = false;
          break;
        }
        total += units;
      }
      if (exact && total < kExactUnits) {
        return static_cast<double>(total) / kUnitsPerOne;
      }
    }
    double contention = 0.0;
    for (const JobId id : live) {
      contention += ff_prob[ix(id)];
    }
    return contention;
  }

  // kValidate: ticks parked job i through `slot` in stripped form — on_slot
  // plus silent feedback, exactly the calls the slot-by-slot engine makes
  // for a sleeper (the sleep scrub turns whatever the channel did into
  // silence) — and throws if it breaks its dormancy promise. State advances
  // identically either way (the promise says silent slots are state
  // no-ops), so kValidate and kOn produce bit-identical results; this is
  // the checked proof of that. Returns the declared probability.
  double check_promise(std::size_t i, Slot slot) {
    const SlotView view{slot - release[i], slot};
    const SlotAction action = proto[i]->on_slot(view);
    if (action.transmit || action.declared_prob != ff_prob[i]) {
      throw std::logic_error(
          "fast-forward validate: a protocol broke its dormancy promise "
          "in on_slot (transmitted or changed its declared probability)");
    }
    if (!action.sleep) {
      // A dormant span is exactly a sleep span (DESIGN.md §6k): a parked
      // job is accounted as asleep, so a protocol that promises dormancy
      // while listening would make the energy counters diverge between
      // --fast-forward modes.
      throw std::logic_error(
          "fast-forward validate: a protocol promised dormancy without "
          "declaring sleep (the parked slots would be accounted as asleep, "
          "but slot-by-slot simulation would count them as listening)");
    }
    SlotFeedback silent;
    silent.outcome = SlotOutcome::kSilence;
    silent.message.reset();
    proto[i]->on_feedback(view, silent);
    if (proto[i]->done()) {
      throw std::logic_error(
          "fast-forward validate: a protocol broke its dormancy promise "
          "in done() after silent feedback");
    }
    return action.declared_prob;
  }

  // kValidate, global skip: checks every live (hence parked) job through
  // the `span` slots about to be skipped, and the promised contention.
  void validate_skip(Slot span, double expect_contention) {
    for (Slot slot = now; slot < now + span; ++slot) {
      double contention = 0.0;
      for (const JobId id : live) {
        contention += check_promise(ix(id), slot);
      }
      if (contention != expect_contention) {
        throw std::logic_error(
            "fast-forward validate: per-slot contention diverged from the "
            "promised constant");
      }
    }
  }

  // Fast-forward query (DESIGN.md §6j), run each slot after activation,
  // wakeups and deadline retirement. Asks the awake jobs, in live order,
  // for a dormancy promise until the first one refuses, parking each that
  // promises. When no awake job is left, the whole run of provably silent
  // slots up to the next event — a wakeup (promise expiry or deadline), the
  // next arrival, or the horizon — is accounted in one batch and `now`
  // jumps across it; returns true then. A collision-cost freeze or an
  // installed observer suppresses the jump (those slots must be
  // materialized), not the parking.
  bool park_or_skip() {
    std::vector<JobId>* candidates = &live;
    if (parked > 0) {
      std::erase_if(awake_jobs, [this](JobId id) {
        return id < base_id || live_flag[ix(id)] == 0;
      });
      std::sort(awake_jobs.begin(), awake_jobs.end(),
                [this](JobId a, JobId b) {
                  return live_pos[ix(a)] < live_pos[ix(b)];
                });
      candidates = &awake_jobs;
    } else {
      awake_jobs.clear();
    }
    std::size_t promised = 0;
    for (; promised < candidates->size(); ++promised) {
      const JobId id = (*candidates)[promised];
      const std::size_t i = ix(id);
      const DormantSpan span =
          proto[i]->dormant_span(SlotView{now - release[i], now});
      if (span.slots <= 0) {
        break;  // no promise — this job must be simulated
      }
      park(id, i, span);
    }
    if (promised > 0) {
      // The parked jobs are a prefix of the candidates.
      const auto rest = static_cast<std::ptrdiff_t>(promised);
      if (candidates == &live) {
        awake_jobs.assign(live.begin() + rest, live.end());
      } else {
        awake_jobs.erase(awake_jobs.begin(), awake_jobs.begin() + rest);
      }
    }
    // Fast-forward requires k = 1, so chans[0] is the only channel.
    const bool skip = parked > 0 && awake_jobs.empty() &&
                      chans[0].freeze == 0 && !observer;
    if (!skip) {
      if (parked > 0 && config.fast_forward == FastForward::kValidate) {
        for (const JobId id : live) {
          if (ff_until[ix(id)] > now) {
            check_promise(ix(id), now);
          }
        }
      }
      return false;
    }

    Slot end = std::min(wake_heap.min_key(), horizon);
    if (pending_spec) {
      end = std::min(end, pending_spec->release);
    }
    const Slot span = end - now;
    assert(span >= 1);
    const double contention = slot_contention(awake_jobs);
    if (config.fast_forward == FastForward::kValidate) {
      validate_skip(span, contention);
    }
    // Account the skipped slots exactly as if simulated: every one is a
    // silent slot with the promised constant contention and the current
    // live set. A dormant span is exactly a sleep span (DESIGN.md §6k), so
    // the skipped slots add zero awake/listen/transmit job-slots — the same
    // zero the slot-by-slot engine would tally.
    metrics.slots_simulated += span;
    metrics.silent_slots += span;
    metrics.fast_forward_slots += span;
    metrics.contention.add_run(contention, static_cast<std::size_t>(span));
    metrics.live_peak = std::max<std::int64_t>(
        metrics.live_peak, static_cast<std::int64_t>(live.size()));
    metrics.live_job_slots += span * static_cast<std::int64_t>(live.size());
    CRMD_TRACE(config.tracer, obs::EventKind::kIdleSkip, now, kNoJob, span,
               static_cast<std::int64_t>(live.size()), contention,
               "idle-skip");
    now += span;
    return true;
  }

  // Channel resolution, physics and feedback projection of one channel
  // (DESIGN.md §6i). Order: resolve -> freeze override -> capture draw ->
  // jammer. A frozen slot (collision-cost recovery in progress) is noise for
  // everyone no matter what was attempted; capture can leak one winner out
  // of a fresh collision; the jammer acts last so an adaptive adversary can
  // stomp a captured success. The jammer is not consulted on frozen slots —
  // the channel is already noise, and jamming it would only waste budget.
  // Capture, the jammer and the noisy model are single-channel only
  // (validation), so their RNG streams are drawn in channel-0 order.
  // Defined once, in simulator.cpp: every pipeline calls it once per
  // channel-slot, so inlining it would only copy it into each of them.
  void resolve_channel(Channel& ch);

  // Shared by both ctors: validates and installs the run's configuration,
  // then pulls the first job and starts the clock at its release.
  void start(SimConfig cfg, std::unique_ptr<Jammer> jam,
             std::unique_ptr<ArrivalProcess> process,
             const ProtocolFactory& job_factory, Slot run_horizon) {
    cfg.validate();
    config = cfg;
    jammer = std::move(jam);
    if (jammer != nullptr && config.multichannel.channels > 1) {
      throw std::invalid_argument(
          "Simulation: multichannel does not support a jamming adversary "
          "(v1 scope, DESIGN.md §6j)");
    }
    master = util::Rng(config.seed);
    jam_rng = util::Rng(config.seed).child(0x4A414D4D4552ULL);  // "JAMMER"
    fb_rng = util::Rng(config.seed).child(0x4642464C4950ULL);   // "FBFLIP"
    cap_rng = util::Rng(config.seed).child(0x43415054ULL);      // "CAPT"
    arr_rng = util::Rng(config.seed).child(0x41525256ULL);      // "ARRV"
    caps = config.feedback.caps();
    if (config.faults.any()) {
      injector = std::make_unique<FaultInjector>(config.faults, config.seed);
      injector->set_tracer(config.tracer);
    }
    chans.resize(static_cast<std::size_t>(config.multichannel.channels));
    ff_enabled =
        config.fast_forward != FastForward::kOff && jammer == nullptr &&
        !config.faults.any() &&
        !(config.feedback.kind == FeedbackKind::kNoisy &&
          config.feedback.eps > 0.0) &&
        config.multichannel.channels == 1;
    factory = job_factory;
    pipeline = factory.pipeline() != nullptr ? factory.pipeline()
                                             : &step_slot<Protocol>;
    arena_owned = batch && factory.arena_aware();
    if (config.common_view()) {
      run_state = std::make_unique<RunState>();
    }
    arrivals = std::move(process);
    horizon = run_horizon;
    pull_next();
    now = pending_spec ? pending_spec->release : 0;
  }
};

// The slot pipeline (DESIGN.md §6e, §6j) over the k sub-channels; k = 1
// is the paper's channel. One decision pass over the ticking jobs
// buckets transmissions by channel; each channel then resolves, applies
// its physics and projects its feedback; one feedback pass, one record
// per channel, one migration pass and one credit/retire pass follow. The
// operation order (simulator.hpp) is pinned by the golden digests and by
// tests/reference_sim.hpp.
//
// P is the class of every protocol the run holds: a final class when the
// factory came from make_arena_factory<P>, whose calls then bind directly
// and inline where P keeps them small header bodies with its rare paths
// out of line, or Protocol itself, whose calls stay virtual (DESIGN.md
// §6e).
template <typename P>
void step_slot(Engine& s, std::int64_t faults_before) {
  static_assert(std::is_same_v<P, Protocol> || std::is_final_v<P>);
  using Channel = Engine::Channel;
  // Decision phase. A skewed job sees its perceived (slipped-ahead) slot
  // indices; a dark job is skipped entirely (no on_slot, no feedback).
  // Radio-state accounting (DESIGN.md §6k) rides along: a transmitter is
  // awake by definition, a non-transmitter is listening unless it
  // declared sleep, and a dark job's radio is off (crashed, not asleep).
  // Parked jobs (fast-forward) sit out every loop here: they neither
  // transmit, listen, nor finish, and their contention is added below.
  // With k = 1 every job is on channel 0, which is indexed directly.
  const bool multi = s.chans.size() > 1;
  const std::vector<JobId>& ticking = s.parked > 0 ? s.awake_jobs : s.live;
  for (Channel& ch : s.chans) {
    ch.tx.clear();
    ch.contention = 0.0;
    ch.live = 0;
    ch.awake = 0;
  }
  std::int64_t tx_this_slot = 0;
  std::int64_t listen_this_slot = 0;
  for (const JobId id : ticking) {
    const std::size_t i = s.ix(id);
    const std::size_t c = multi ? s.chan[i] : 0;
    Channel& ch = s.chans[c];
    ++ch.live;
    Slot skew = 0;
    if (s.injector != nullptr) {
      const FaultInjector::JobFaults& jf = s.faults[i];
      if (jf.dark_until != kNoSlot) {
        ++s.dark_slot_count[i];
        continue;
      }
      skew = jf.skew;
    }
    SlotView view{/*since_release=*/s.now - s.release[i] + skew,
                  /*global_slot=*/s.now + skew};
    const SlotAction action = static_cast<P*>(s.proto[i])->on_slot(view);
    ch.contention += action.declared_prob;
    if (s.ff_enabled) {
      s.ff_prob[i] = action.declared_prob;
    }
    const bool awake = action.transmit || !action.sleep;
    s.radio[i] = awake ? static_cast<std::uint8_t>(action.transmit)
                       : Engine::kAsleep;
    if (s.config.tracer != nullptr && awake != (s.prev_awake[i] != 0)) {
      CRMD_TRACE(s.config.tracer,
                 awake ? obs::EventKind::kRadioWake
                       : obs::EventKind::kRadioSleep,
                 s.now, id, s.now - s.release[i], static_cast<std::int64_t>(c),
                 0.0, awake ? "wake" : "sleep");
      s.prev_awake[i] = awake ? 1 : 0;
    }
    if (awake) {
      ++ch.awake;
    }
    if (action.transmit) {
      ch.tx.push_back(Transmission{id, action.message});
      ++s.tx_count[i];
      ++tx_this_slot;
      CRMD_TRACE(s.config.tracer, obs::EventKind::kTransmit, s.now, id,
                 static_cast<std::int64_t>(action.message.kind),
                 static_cast<std::int64_t>(c), action.declared_prob,
                 to_string(action.message.kind));
    } else if (awake) {
      ++s.listen_count[i];
      ++listen_this_slot;
    }
  }
  if (s.parked > 0) {
    // Parked jobs all sit on channel 0: parking requires k = 1.
    s.chans[0].contention = s.slot_contention(ticking);
    s.chans[0].live += static_cast<std::uint32_t>(s.parked);
  }
  s.metrics.slots_transmitting += tx_this_slot;
  s.metrics.slots_listening += listen_this_slot;
  s.metrics.slots_awake += tx_this_slot + listen_this_slot;
  s.metrics.live_job_slots += static_cast<std::int64_t>(s.live.size());
  s.metrics.live_peak = std::max<std::int64_t>(
      s.metrics.live_peak, static_cast<std::int64_t>(s.live.size()));

  for (Channel& ch : s.chans) {
    s.resolve_channel(ch);
  }

  // Feedback phase. Each job hears its own channel's projection, perturbed
  // per listener by faults; the true outcome stays authoritative for
  // crediting below. A job hears the view its kSent mark selects (a
  // capture winner's mark was cleared: it hears its own success). Where a
  // model's views do not differ they are equal, so the mark changes
  // nothing there.
  // Each job's done() is read right after its own on_feedback (a dark
  // job's in its place): it depends only on that job's protocol state,
  // which nothing later in the slot touches.
  s.done_jobs.clear();
  for (const JobId id : ticking) {
    const std::size_t i = s.ix(id);
    P& p = *static_cast<P*>(s.proto[i]);
    const Channel& ch = s.chans[multi ? s.chan[i] : 0];
    const std::uint8_t radio = s.radio[i];
    const SlotFeedback* heard = &ch.view[radio & Engine::kSent];
    Slot skew = 0;
    if (s.injector != nullptr) {
      FaultInjector::JobFaults& jf = s.faults[i];
      if (jf.dark_until != kNoSlot) {
        if (p.done()) {
          s.done_jobs.push_back(id);
        }
        continue;
      }
      heard = &s.injector->perceive(jf, id, s.now, *heard);
      skew = jf.skew;
    }
    if ((radio & Engine::kAsleep) != 0) {
      // Enforce the sleep declaration (DESIGN.md §6k): a sleeper's radio
      // is off, so whatever the channel (or a fault) produced, it hears
      // silence. Scrubbed *after* injector->perceive so fault RNG streams
      // and fault metrics are untouched — a protocol that declares sleep
      // honestly (its state was feedback-independent anyway) behaves
      // bit-identically; one that lies sleeps through real cues instead
      // of silently under-reporting energy. on_feedback is still called:
      // it is the protocol's timer tick.
      heard = &Engine::kSilent;
    }
    SlotView view{s.now - s.release[i] + skew, s.now + skew};
    p.on_feedback(view, *heard);
    if (p.done()) {
      s.done_jobs.push_back(id);
    }
  }
  // Record one channel-slot per channel. The fault-count delta of the
  // time slot is charged to channel 0's record so sums stay exact.
  for (std::size_t c = 0; c < s.chans.size(); ++c) {
    const Channel& ch = s.chans[c];
    SlotRecord rec;
    rec.slot = s.now;
    rec.outcome = ch.truth.outcome;
    rec.success_kind =
        ch.truth.message ? ch.truth.message->kind : MessageKind::kData;
    rec.contention = ch.contention;
    rec.transmitters = static_cast<std::uint32_t>(ch.tx.size());
    rec.live_jobs = ch.live;
    rec.jammed = ch.jammed;
    if (c == 0 && s.injector != nullptr) {
      rec.faults = static_cast<std::uint32_t>(s.injector->total_injected() -
                                              faults_before);
    }
    s.metrics.record(rec);
    CRMD_TRACE(s.config.tracer, obs::EventKind::kSlotResolved, s.now, kNoJob,
               static_cast<std::int64_t>(ch.truth.outcome),
               static_cast<std::int64_t>(ch.tx.size()), ch.contention,
               to_string(ch.truth.outcome));
    // The listener-perceived companion event: what the feedback model let
    // pure listeners hear this slot (before per-job fault perturbation),
    // plus the channel's live-set size and (in x) its awake job count —
    // the per-slot energy datum obs::Timeline buckets. The gap between
    // this and kSlotResolved is the channel's perception error.
    CRMD_TRACE(s.config.tracer, obs::EventKind::kSlotPerceived, s.now, kNoJob,
               static_cast<std::int64_t>(ch.view[0].outcome),
               static_cast<std::int64_t>(ch.live),
               static_cast<double>(ch.awake),
               to_string(ch.view[0].outcome));
    if (s.observer) {
      s.observer(rec, ch.tx);
    }
  }

  // Migration: a transmitter whose channel resolved (or froze) to noise
  // suffered a collision; after every migrate_after of them it rehashes
  // deterministically — keyed on (seed, id, collision count), no RNG
  // stream — onto a fresh channel. Nothing else reads the counts.
  if (s.config.multichannel.migrate) {
    const auto every =
        static_cast<std::uint32_t>(s.config.multichannel.migrate_after);
    for (const Channel& ch : s.chans) {
      if (ch.truth.outcome != SlotOutcome::kNoise) {
        continue;
      }
      for (const Transmission& t : ch.tx) {
        const std::size_t i = s.ix(t.job);
        if (++s.coll_count[i] % every == 0) {
          s.chan[i] = static_cast<std::uint8_t>(shard_of(
              s.config.seed,
              (static_cast<std::uint64_t>(s.coll_count[i]) << 32) |
                  static_cast<std::uint64_t>(t.job),
              s.config.multichannel.channels));
        }
      }
    }
  }

  // Credit up to one delivered data message per channel, then retire
  // finished jobs. The winners head to_retire, so appending the done
  // jobs only has to skip those <= k ids.
  s.to_retire.clear();
  for (const Channel& ch : s.chans) {
    if (ch.truth.outcome == SlotOutcome::kSuccess &&
        ch.truth.message->kind == MessageKind::kData) {
      const JobId winner = ch.truth.message->sender;
      assert(winner >= s.base_id && s.ix(winner) < s.job_count() &&
             s.live_flag[s.ix(winner)] != 0);
      CRMD_TRACE(s.config.tracer, obs::EventKind::kSuccessCredit, s.now,
                 winner);
      s.success_slot[s.ix(winner)] = s.now;
      s.to_retire.push_back(winner);
    }
  }
  const auto winners = static_cast<std::ptrdiff_t>(s.to_retire.size());
  for (const JobId id : s.done_jobs) {
    if (std::find(s.to_retire.begin(), s.to_retire.begin() + winners, id) ==
        s.to_retire.begin() + winners) {
      s.to_retire.push_back(id);
    }
  }
  for (const JobId id : s.to_retire) {
    s.retire(id, s.now + 1);
  }
}

}  // namespace crmd::sim
