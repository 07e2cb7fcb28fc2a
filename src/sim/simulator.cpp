#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/arrivals.hpp"
#include "sim/multichannel.hpp"
#include "util/arena.hpp"

namespace crmd::sim {

namespace {
constexpr Slot kMaxSlot = std::numeric_limits<Slot>::max();

// What a sleeper hears, whatever the channel did (DESIGN.md §6k).
constexpr SlotFeedback kSilent{};

// Exact contention arithmetic (see Impl::slot_contention): probabilities
// that are multiples of 2^-32 are summed as integers in those units.
constexpr double kUnitsPerOne = 4294967296.0;  // 2^32
constexpr std::uint64_t kExactUnits = std::uint64_t{1} << 52;
constexpr std::uint64_t kInexact = std::numeric_limits<std::uint64_t>::max();

// `p` in units of 2^-32 when it is such a multiple in [0, 1] (scaling by a
// power of two is exact), else kInexact.
std::uint64_t exact_units(double p) {
  const double scaled = p * kUnitsPerOne;
  if (!(scaled >= 0.0 && scaled <= kUnitsPerOne)) {
    return kInexact;  // out of range or NaN
  }
  const auto units = static_cast<std::uint64_t>(scaled);
  return static_cast<double>(units) == scaled ? units : kInexact;
}
}  // namespace

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
  if (!collision_detection && feedback.kind != FeedbackKind::kTernary) {
    throw std::invalid_argument(
        "SimConfig: the legacy collision_detection ablation only composes "
        "with the ternary feedback model; use "
        "FeedbackModel::collision_as_silence instead");
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
        feedback.kind == FeedbackKind::kCapture) {
      throw std::invalid_argument(
          "SimConfig: multichannel composes only with the ternary, "
          "binary_ack, and collision_as_silence feedback models (v1 scope, "
          "DESIGN.md §6j)");
    }
    if (!collision_detection) {
      throw std::invalid_argument(
          "SimConfig: multichannel does not compose with the legacy "
          "collision_detection ablation");
    }
  }
  if (stream_compact < 1) {
    throw std::invalid_argument(
        "SimConfig: stream_compact must be >= 1, got " +
        std::to_string(stream_compact));
  }
}

// Data-oriented engine layout (DESIGN.md §6e). Per-job state is split into
// hot structure-of-arrays scanned every slot (release/deadline/protocol
// pointer/live flag plus the per-job counters the decision loop bumps) and
// cold state touched once per job (JobResult). Protocols are constructed in
// place inside a per-simulation MonotonicArena when the factory supports it
// (all registered factories do); `live_pos` gives O(1) swap-removal from
// the live list; `dark`/`transmitted` are per-slot scratch whose clearing
// cost scales with the jobs actually touched, never with the total job
// count. All of this is bookkeeping only: the order of protocol
// construction, RNG child derivation, ticks, decisions, feedback, and
// retirement is exactly the historical order, so results stay bit-identical
// (pinned in tests/test_determinism_golden.cpp).
//
// Streaming mode (DESIGN.md §6j) reuses the same arrays but indexes them by
// ix(id) = id - base_id: jobs are appended at activation (the arrival
// process provides a one-job lookahead in `pending_spec`), folded into
// `stream` at retirement, and the dead prefix of the arrays is erased —
// bumping base_id — once it crosses the compaction threshold, so memory is
// bounded by the live set. In batch mode base_id stays 0 and ix() is the
// identity, so the hot path pays one subtract that constant-folds against a
// register holding zero.
struct Simulation::Impl {
  SimConfig config;
  /// Kept only for streaming appends (empty in batch mode).
  ProtocolFactory factory;
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
  /// Dedicated stream for streaming arrival draws ("ARRV").
  util::Rng arr_rng{0};
  /// Non-null = streaming mode.
  std::unique_ptr<ArrivalProcess> arrivals;
  /// Streaming one-job lookahead; nullopt = the stream is exhausted.
  std::optional<workload::JobSpec> pending_spec;
  /// Global id of arrays[0] (streaming compaction offset; 0 in batch).
  JobId base_id = 0;
  /// Next global id to assign (streaming).
  JobId next_id = 0;
  /// Nondecreasing-release enforcement for arrival processes.
  Slot last_release = 0;
  /// Streaming: arrays[0..dead_prefix) are all retired (never revived).
  std::size_t dead_prefix = 0;
  /// Streaming, keep_job_results: retired JobResults in retirement order
  /// (sorted by id in finish()).
  std::vector<JobResult> finished_results;
  StreamSummary stream;

  /// Capabilities stamped into every JobInfo (derived once from the model).
  ChannelCaps caps;
  std::unique_ptr<FaultInjector> injector;  // null when the plan is empty

  // --- Hot per-job state (structure-of-arrays, indexed by ix(id)). ---
  std::vector<Slot> release;
  std::vector<Slot> deadline;
  std::vector<Protocol*> proto;        // null once retired
  std::vector<std::uint8_t> live_flag;
  std::vector<std::uint32_t> live_pos;  // index into `live`; valid while live
  // Per-job counters bumped in the decision loop; folded into the cold
  // JobResult once — at finish() in batch mode, at retirement in streaming.
  std::vector<std::int64_t> live_slot_count;
  std::vector<std::int64_t> dark_slot_count;
  std::vector<std::int64_t> tx_count;
  // Radio-energy accounting (DESIGN.md §6k): slots spent listening (awake
  // without transmitting). Sleep slots are the remainder of live_slot_count;
  // parked jobs and fast-forwarded spans add nothing here — a dormant span
  // is exactly a sleep span, so those slots batch-account zero awake slots,
  // which is what makes the energy counters bit-identical across
  // --fast-forward modes.
  std::vector<std::int64_t> listen_count;
  // Last observed radio state (1 = awake) per job, for kRadioSleep /
  // kRadioWake transition events. Jobs activate awake (radio on at
  // power-up); parking puts a job to sleep at the slot it parks, exactly
  // where slot-by-slot simulation would.
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
  // the slot's contention without a virtual call.
  std::vector<Slot> ff_until;
  std::vector<double> ff_prob;

  // --- Cold per-job state. ---
  std::vector<JobResult> results;

  // Backing store for the protocol objects. `arena_owned` is false only for
  // heap-only (legacy ad-hoc) factories and for streaming mode (an arena
  // never frees, so an open-ended run must use plain heap objects), in
  // which case `proto` holds plain owning pointers released with `delete`.
  util::MonotonicArena arena;
  bool arena_owned = false;

  std::vector<JobId> live;        // ids of live jobs
  std::size_t next_pending = 0;   // batch: first job not yet activated
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
  // binary min-heap keyed by their wakeup slot min(ff_until, deadline) and
  // global id — global, so entries survive streaming compaction. A parked
  // job leaves the heap only by waking: wakeups run before the deadline
  // scan, so a parked job is never retired. While any job is parked,
  // `awake_jobs` holds the live jobs that are not (possibly with retired
  // ids, pruned lazily); while none is, it is empty and every loop runs
  // over `live` exactly as without fast-forward.
  std::vector<std::pair<Slot, JobId>> wake_heap;
  std::vector<JobId> awake_jobs;
  std::size_t parked = 0;
  // Sum of the parked jobs' promised probabilities in units of 2^-32, and
  // how many of them are not such a multiple (see slot_contention()).
  std::uint64_t parked_units = 0;
  std::size_t parked_inexact = 0;

  SimMetrics metrics;
  std::vector<SlotRecord> slot_trace;
  SlotObserver observer;

  // Scratch buffers reused across slots. `dark` and `transmitted` are
  // job-indexed but cleared per slot only at the entries written this slot
  // (live jobs resp. transmitters), so per-slot cost tracks the live set.
  std::vector<JobId> to_retire;
  std::vector<JobId> done_jobs;  // reporting done() this slot, ticking order
  std::vector<std::uint8_t> dark;         // "dark this slot" (faulted runs)
  std::vector<std::uint8_t> transmitted;  // "sent this slot" (ACK-only runs)
  std::vector<std::uint8_t> asleep;       // "slept this slot" (§6k scrub)

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
    SlotFeedback truth;        // true outcome (credited)
    SlotFeedback listener;     // what a pure listener perceives
    SlotFeedback transmitter;  // what a transmitter perceives
    bool split = false;        // transmitter view differs from listener's
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

  [[nodiscard]] bool streaming() const noexcept { return arrivals != nullptr; }

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

  ~Impl() {
    for (std::size_t i = 0; i < proto.size(); ++i) {
      destroy_at(i);
    }
  }

  // Folds a retired (or horizon-cut) streaming job into the rolling
  // summary; the per-job counters are final once the job leaves the live
  // set, so this matches batch mode's fold-at-finish exactly.
  void fold_streamed(std::size_t i) {
    JobResult& r = results[i];
    r.live_slots = live_slot_count[i];
    r.dark_slots = dark_slot_count[i];
    r.transmissions = tx_count[i];
    r.listen_slots = listen_count[i];
    stream.add(r);
    if (config.keep_job_results) {
      finished_results.push_back(r);
    }
  }

  void retire(JobId id) {
    const std::size_t i = ix(id);
    if (live_flag[i] == 0) {
      return;
    }
    CRMD_TRACE(config.tracer, obs::EventKind::kJobRetire, now, id,
               results[i].success ? 1 : 0);
    live_flag[i] = 0;
    destroy_at(i);
    const std::uint32_t pos = live_pos[i];
    assert(pos < live.size() && live[pos] == id);
    const JobId moved = live.back();
    live[pos] = moved;
    live_pos[ix(moved)] = pos;
    live.pop_back();
    if (streaming()) {
      fold_streamed(i);
    }
  }

  // Streaming: refills the one-job lookahead, enforcing the process
  // contract (sane windows, nondecreasing releases) and ending the stream
  // at the horizon — releases are nondecreasing, so once one job starts at
  // or past the horizon every later one does too.
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

  // Streaming: appends one job to the arrays and activates it. Ids are
  // assigned in arrival order and each protocol draws from its own
  // master.child(id + 1) stream, exactly as the batch ctor does, so a
  // VectorArrivals replay of a normalized instance is bit-identical to the
  // batch run.
  void append_job(JobId id, const workload::JobSpec& spec) {
    JobInfo info;
    info.id = id;
    info.release = spec.release;
    info.deadline = spec.deadline;
    info.caps = caps;
    release.push_back(spec.release);
    deadline.push_back(spec.deadline);
    Protocol* p = factory(info, master.child(id + 1)).release();
    p->set_tracer(config.tracer);
    proto.push_back(p);
    live_flag.push_back(1);
    live_pos.push_back(static_cast<std::uint32_t>(live.size()));
    live.push_back(id);
    if (parked > 0) {
      awake_jobs.push_back(id);
    }
    live_slot_count.push_back(0);
    dark_slot_count.push_back(0);
    tx_count.push_back(0);
    listen_count.push_back(0);
    prev_awake.push_back(1);
    dark.push_back(0);
    transmitted.push_back(0);
    asleep.push_back(0);
    ff_until.push_back(0);
    ff_prob.push_back(0.0);
    chan.push_back(static_cast<std::uint8_t>(
        shard_of(config.seed, id, config.multichannel.channels)));
    coll_count.push_back(0);
    JobResult result;
    result.id = id;
    result.release = spec.release;
    result.deadline = spec.deadline;
    results.push_back(result);
    min_deadline = std::min(min_deadline, spec.deadline);
    CRMD_TRACE(config.tracer, obs::EventKind::kJobActivate, now, id,
               spec.release, spec.deadline);
    p->on_activate(info);
  }

  // Streaming: erases the dead prefix of every per-job array once it is
  // both large in absolute terms (stream_compact) and at least half the
  // arrays — each compaction removes >= half, so the per-job cost is
  // amortized O(1) and steady-state memory is O(live + stream_compact).
  void maybe_compact() {
    while (dead_prefix < live_flag.size() && live_flag[dead_prefix] == 0) {
      ++dead_prefix;
    }
    if (dead_prefix < static_cast<std::size_t>(config.stream_compact) ||
        dead_prefix * 2 < live_flag.size()) {
      return;
    }
    const auto n = static_cast<std::ptrdiff_t>(dead_prefix);
    const auto erase_prefix = [n](auto& v) {
      v.erase(v.begin(), v.begin() + n);
    };
    erase_prefix(release);
    erase_prefix(deadline);
    erase_prefix(proto);
    erase_prefix(live_flag);
    erase_prefix(live_pos);
    erase_prefix(live_slot_count);
    erase_prefix(dark_slot_count);
    erase_prefix(tx_count);
    erase_prefix(listen_count);
    erase_prefix(prev_awake);
    erase_prefix(dark);
    erase_prefix(transmitted);
    erase_prefix(asleep);
    erase_prefix(ff_until);
    erase_prefix(ff_prob);
    erase_prefix(results);
    erase_prefix(chan);
    erase_prefix(coll_count);
    base_id += static_cast<JobId>(dead_prefix);
    dead_prefix = 0;
  }

  // Parks job `id` (index i) on the dormancy promise `span` made at `now`.
  // Its live-slot counter is credited the whole park up front — the job
  // wakes exactly at its heap key — and finish() takes back any part past
  // the end of the run. A radio that was on goes to sleep here, the slot
  // where slot-by-slot simulation would emit the transition.
  void park(JobId id, std::size_t i, const DormantSpan& span) {
    ff_until[i] = now + span.slots;
    ff_prob[i] = span.prob;
    const Slot wake = std::min(ff_until[i], deadline[i]);
    live_slot_count[i] += wake - now;
    wake_heap.emplace_back(wake, id);
    std::push_heap(wake_heap.begin(), wake_heap.end(), std::greater<>{});
    ++parked;
    const std::uint64_t units = exact_units(span.prob);
    if (units == kInexact) {
      ++parked_inexact;
    } else {
      parked_units += units;
    }
    if (prev_awake[i] != 0) {
      CRMD_TRACE(config.tracer, obs::EventKind::kRadioSleep, now, id,
                 now - release[i], 0, 0.0, "sleep");
      prev_awake[i] = 0;
    }
  }

  // Wakes every parked job whose heap key has arrived into `awake_jobs`.
  void wake_due() {
    while (!wake_heap.empty() && wake_heap.front().first <= now) {
      const JobId id = wake_heap.front().second;
      std::pop_heap(wake_heap.begin(), wake_heap.end(), std::greater<>{});
      wake_heap.pop_back();
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
    }
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

    Slot end = std::min(wake_heap.front().first, horizon);
    if (streaming()) {
      if (pending_spec) {
        end = std::min(end, pending_spec->release);
      }
    } else if (next_pending < job_count()) {
      end = std::min(end, release[next_pending]);
    }
    const Slot span = end - now;
    assert(span >= 1);
    const double contention = slot_contention(awake_jobs);
    if (config.fast_forward == FastForward::kValidate) {
      validate_skip(span, contention);
    }
    // Account the skipped slots exactly as if simulated: every one is a
    // silent slot with the promised constant contention and the current
    // live set. Live-slot counters were credited at park time, and a
    // dormant span is exactly a sleep span (DESIGN.md §6k), so the skipped
    // slots add zero awake/listen/transmit job-slots — the same zero the
    // slot-by-slot engine would tally.
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

  // End of run: takes back the credit of parks that reach past it.
  void settle_parked() {
    for (const JobId id : live) {
      const std::size_t i = ix(id);
      if (ff_until[i] > now) {
        live_slot_count[i] -= std::min(ff_until[i], deadline[i]) - now;
        ff_until[i] = now;
      }
    }
  }

  // The slot pipeline (DESIGN.md §6e, §6j) over the k sub-channels; k = 1
  // is the paper's channel. One decision pass over the ticking jobs
  // buckets transmissions by channel; each channel then resolves, applies
  // its physics and projects its feedback; one feedback pass, one record
  // per channel, one migration pass and one credit/retire pass follow. The
  // operation order (simulator.hpp) is pinned by the golden digests and by
  // tests/reference_sim.hpp (ix() is the identity in batch mode).
  void step_slot(std::int64_t faults_before) {
    // Decision phase. A skewed job sees its perceived (slipped-ahead) slot
    // indices; a dark job is skipped entirely (no on_slot, no feedback).
    // Radio-state accounting (DESIGN.md §6k) rides along: a transmitter is
    // awake by definition, a non-transmitter is listening unless it
    // declared sleep, and a dark job's radio is off (crashed, not asleep).
    // Parked jobs (fast-forward) sit out every loop here: they neither
    // transmit, listen, nor finish, and their contention is added below.
    // With k = 1 every job is on channel 0, which is indexed directly.
    const bool multi = chans.size() > 1;
    const std::vector<JobId>& ticking = parked > 0 ? awake_jobs : live;
    for (Channel& ch : chans) {
      ch.tx.clear();
      ch.contention = 0.0;
      ch.live = 0;
      ch.awake = 0;
    }
    std::int64_t tx_this_slot = 0;
    std::int64_t listen_this_slot = 0;
    for (const JobId id : ticking) {
      const std::size_t i = ix(id);
      ++live_slot_count[i];
      const std::size_t c = multi ? chan[i] : 0;
      Channel& ch = chans[c];
      ++ch.live;
      if (injector != nullptr && dark[i] != 0) {
        ++dark_slot_count[i];
        continue;
      }
      const Slot skew = injector ? injector->skew(id) : 0;
      SlotView view{/*since_release=*/now - release[i] + skew,
                    /*global_slot=*/now + skew};
      const SlotAction action = proto[i]->on_slot(view);
      ch.contention += action.declared_prob;
      ff_prob[i] = action.declared_prob;
      const bool awake = action.transmit || !action.sleep;
      asleep[i] = awake ? 0 : 1;
      if (awake != (prev_awake[i] != 0)) {
        CRMD_TRACE(config.tracer,
                   awake ? obs::EventKind::kRadioWake
                         : obs::EventKind::kRadioSleep,
                   now, id, now - release[i], static_cast<std::int64_t>(c),
                   0.0, awake ? "wake" : "sleep");
        prev_awake[i] = awake ? 1 : 0;
      }
      if (awake) {
        ++ch.awake;
      }
      if (action.transmit) {
        ch.tx.push_back(Transmission{id, action.message});
        ++tx_count[i];
        ++tx_this_slot;
        CRMD_TRACE(config.tracer, obs::EventKind::kTransmit, now, id,
                   static_cast<std::int64_t>(action.message.kind),
                   static_cast<std::int64_t>(c), action.declared_prob,
                   to_string(action.message.kind));
      } else if (awake) {
        ++listen_count[i];
        ++listen_this_slot;
      }
    }
    if (parked > 0) {
      // Parked jobs all sit on channel 0: parking requires k = 1.
      chans[0].contention = slot_contention(ticking);
      chans[0].live += static_cast<std::uint32_t>(parked);
    }
    metrics.slots_transmitting += tx_this_slot;
    metrics.slots_listening += listen_this_slot;
    metrics.slots_awake += tx_this_slot + listen_this_slot;
    metrics.live_job_slots += static_cast<std::int64_t>(live.size());
    metrics.live_peak = std::max<std::int64_t>(
        metrics.live_peak, static_cast<std::int64_t>(live.size()));

    for (Channel& ch : chans) {
      resolve_channel(ch);
    }

    // Feedback phase. Each job hears its own channel's projection, perturbed
    // per listener by faults; the true outcome stays authoritative for
    // crediting below. Where a channel's views split, one O(transmitters)
    // bitmap pass makes the per-listener "did I transmit" check O(1).
    // Each job's done() is read right after its own on_feedback (a dark
    // job's in its place): it depends only on that job's protocol state,
    // which nothing later in the slot touches.
    for (const Channel& ch : chans) {
      if (ch.split) {
        for (const Transmission& t : ch.tx) {
          transmitted[ix(t.job)] = 1;
        }
        if (ch.capture_winner != kNoJob) {
          // The winner hears its own success.
          transmitted[ix(ch.capture_winner)] = 0;
        }
      }
    }
    SlotFeedback perturbed;
    done_jobs.clear();
    for (const JobId id : ticking) {
      const std::size_t i = ix(id);
      Protocol& p = *proto[i];
      if (injector != nullptr && dark[i] != 0) {
        if (p.done()) {
          done_jobs.push_back(id);
        }
        continue;
      }
      const Channel& ch = chans[multi ? chan[i] : 0];
      const bool sent = ch.split && transmitted[i] != 0;
      const SlotFeedback* heard = sent ? &ch.transmitter : &ch.listener;
      if (injector != nullptr) {
        perturbed = injector->perceive(id, now, *heard);
        heard = &perturbed;
      }
      if (asleep[i] != 0) {
        // Enforce the sleep declaration (DESIGN.md §6k): a sleeper's radio
        // is off, so whatever the channel (or a fault) produced, it hears
        // silence. Scrubbed *after* injector->perceive so fault RNG streams
        // and fault metrics are untouched — a protocol that declares sleep
        // honestly (its state was feedback-independent anyway) behaves
        // bit-identically; one that lies sleeps through real cues instead
        // of silently under-reporting energy. on_feedback is still called:
        // it is the protocol's timer tick.
        heard = &kSilent;
      }
      const Slot skew = injector ? injector->skew(id) : 0;
      SlotView view{now - release[i] + skew, now + skew};
      p.on_feedback(view, *heard);
      if (p.done()) {
        done_jobs.push_back(id);
      }
    }
    for (const Channel& ch : chans) {
      if (ch.split) {
        for (const Transmission& t : ch.tx) {
          transmitted[ix(t.job)] = 0;
        }
      }
    }

    // Record one channel-slot per channel. The fault-count delta of the
    // time slot is charged to channel 0's record so sums stay exact.
    for (std::size_t c = 0; c < chans.size(); ++c) {
      const Channel& ch = chans[c];
      SlotRecord rec;
      rec.slot = now;
      rec.outcome = ch.truth.outcome;
      rec.success_kind =
          ch.truth.message ? ch.truth.message->kind : MessageKind::kData;
      rec.contention = ch.contention;
      rec.transmitters = static_cast<std::uint32_t>(ch.tx.size());
      rec.live_jobs = ch.live;
      rec.jammed = ch.jammed;
      if (c == 0 && injector != nullptr) {
        rec.faults = static_cast<std::uint32_t>(injector->total_injected() -
                                                faults_before);
      }
      metrics.record(rec);
      CRMD_TRACE(config.tracer, obs::EventKind::kSlotResolved, now, kNoJob,
                 static_cast<std::int64_t>(ch.truth.outcome),
                 static_cast<std::int64_t>(ch.tx.size()), ch.contention,
                 to_string(ch.truth.outcome));
      // The listener-perceived companion event: what the feedback model let
      // pure listeners hear this slot (before per-job fault perturbation),
      // plus the channel's live-set size and (in x) its awake job count —
      // the per-slot energy datum obs::Timeline buckets. The gap between
      // this and kSlotResolved is the channel's perception error.
      CRMD_TRACE(config.tracer, obs::EventKind::kSlotPerceived, now, kNoJob,
                 static_cast<std::int64_t>(ch.listener.outcome),
                 static_cast<std::int64_t>(ch.live),
                 static_cast<double>(ch.awake),
                 to_string(ch.listener.outcome));
      if (config.record_slots) {
        slot_trace.push_back(rec);
      }
      if (observer) {
        observer(rec, ch.tx);
      }
    }

    // Migration: a transmitter whose channel resolved (or froze) to noise
    // suffered a collision; after every migrate_after of them it rehashes
    // deterministically — keyed on (seed, id, collision count), no RNG
    // stream — onto a fresh channel. Nothing else reads the counts.
    if (config.multichannel.migrate) {
      const auto every =
          static_cast<std::uint32_t>(config.multichannel.migrate_after);
      for (const Channel& ch : chans) {
        if (ch.truth.outcome != SlotOutcome::kNoise) {
          continue;
        }
        for (const Transmission& t : ch.tx) {
          const std::size_t i = ix(t.job);
          if (++coll_count[i] % every == 0) {
            chan[i] = static_cast<std::uint8_t>(shard_of(
                config.seed,
                (static_cast<std::uint64_t>(coll_count[i]) << 32) |
                    static_cast<std::uint64_t>(t.job),
                config.multichannel.channels));
          }
        }
      }
    }

    // Credit up to one delivered data message per channel, then retire
    // finished jobs. The winners head to_retire, so appending the done
    // jobs only has to skip those <= k ids.
    to_retire.clear();
    for (const Channel& ch : chans) {
      if (ch.truth.outcome == SlotOutcome::kSuccess &&
          ch.truth.message->kind == MessageKind::kData) {
        const JobId winner = ch.truth.message->sender;
        assert(winner >= base_id && ix(winner) < job_count() &&
               live_flag[ix(winner)] != 0);
        CRMD_TRACE(config.tracer, obs::EventKind::kSuccessCredit, now,
                   winner);
        results[ix(winner)].success = true;
        results[ix(winner)].success_slot = now;
        to_retire.push_back(winner);
      }
    }
    const auto winners = static_cast<std::ptrdiff_t>(to_retire.size());
    for (const JobId id : done_jobs) {
      if (std::find(to_retire.begin(), to_retire.begin() + winners, id) ==
          to_retire.begin() + winners) {
        to_retire.push_back(id);
      }
    }
    for (const JobId id : to_retire) {
      retire(id);
    }
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
  void resolve_channel(Channel& ch) {
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
      ++metrics.capture_wins;
      CRMD_TRACE(config.tracer, obs::EventKind::kCaptureWin, now,
                 ch.capture_winner, static_cast<std::int64_t>(ch.tx.size()),
                 0, config.feedback.alpha, "capture");
    }

    // The feedback model projects the true outcome into a common listener
    // view and (when transmitters perceive something different) a
    // transmitter view. O(1), no allocation.
    ch.listener = fb;
    ch.transmitter = fb;
    ch.split = false;
    switch (config.feedback.kind) {
      case FeedbackKind::kTernary:
        // Legacy unadvertised ablation: listeners perceive noisy slots as
        // silent; transmitters still learn their failure (ACK-style).
        if (!config.collision_detection &&
            fb.outcome == SlotOutcome::kNoise) {
          ch.listener.outcome = SlotOutcome::kSilence;
          ch.listener.message.reset();
          ch.split = true;
        }
        break;
      case FeedbackKind::kBinaryAck:
        // Listeners hear nothing, ever; transmitters get the true outcome
        // (their own success, or noise when their transmission failed).
        ch.listener.outcome = SlotOutcome::kSilence;
        ch.listener.message.reset();
        ch.split = !ch.tx.empty();
        break;
      case FeedbackKind::kCollisionAsSilence:
        // Empty and collided slots are indistinguishable for everyone —
        // including the transmitters, who get no failure ACK.
        if (fb.outcome == SlotOutcome::kNoise) {
          ch.listener.outcome = SlotOutcome::kSilence;
          ch.listener.message.reset();
          ch.transmitter = ch.listener;
        }
        break;
      case FeedbackKind::kNoisy:
        // One seeded flip draw per simulated slot; on a flip every observer
        // hears the same one-step-degraded outcome.
        if (config.feedback.eps > 0.0 &&
            fb_rng.bernoulli(config.feedback.eps)) {
          ch.listener = degrade_feedback(fb);
          ch.transmitter = ch.listener;
          ++metrics.feedback_flips;
        }
        break;
      case FeedbackKind::kCapture:
        // On a captured success, listeners (and the winner, excluded from
        // the transmitted bitmap) hear the success; the k-1 losers perceive
        // noise — their own signal drowned the broadcast out at their
        // radio. Without a capture win the channel is exactly ternary.
        if (ch.capture_winner != kNoJob) {
          ch.transmitter.outcome = SlotOutcome::kNoise;
          ch.transmitter.message.reset();
          ch.split = true;
        }
        break;
    }
  }

  void init(SimConfig cfg, std::unique_ptr<Jammer> jam) {
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
      injector->set_record_events(config.record_slots);
      injector->set_tracer(config.tracer);
    }
    chans.resize(static_cast<std::size_t>(config.multichannel.channels));
    ff_enabled =
        config.fast_forward != FastForward::kOff && jammer == nullptr &&
        !config.faults.any() &&
        !(config.feedback.kind == FeedbackKind::kNoisy &&
          config.feedback.eps > 0.0) &&
        !config.record_slots && config.multichannel.channels == 1;
  }
};

Simulation::Simulation(workload::Instance instance,
                       const ProtocolFactory& factory, SimConfig config,
                       std::unique_ptr<Jammer> jammer)
    : impl_(std::make_unique<Impl>()) {
  instance.normalize();
  instance.validate();

  Impl& s = *impl_;
  s.init(std::move(config), std::move(jammer));
  s.horizon =
      s.config.horizon > 0 ? s.config.horizon : instance.max_deadline();
  s.now = instance.empty() ? 0 : instance.min_release();

  const util::Rng master(s.config.seed);
  const std::size_t n = instance.size();
  s.release.reserve(n);
  s.deadline.reserve(n);
  s.proto.reserve(n);
  s.live_flag.assign(n, 0);
  s.live_pos.assign(n, 0);
  s.live_slot_count.assign(n, 0);
  s.dark_slot_count.assign(n, 0);
  s.tx_count.assign(n, 0);
  s.listen_count.assign(n, 0);
  s.prev_awake.assign(n, 1);
  s.results.reserve(n);
  s.dark.assign(n, 0);
  s.transmitted.assign(n, 0);
  s.asleep.assign(n, 0);
  s.ff_until.assign(n, 0);
  s.ff_prob.assign(n, 0.0);
  s.chan.reserve(n);
  s.coll_count.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    s.chan.push_back(static_cast<std::uint8_t>(
        shard_of(s.config.seed, static_cast<JobId>(i),
                 s.config.multichannel.channels)));
  }
  s.arena_owned = factory.arena_aware();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& spec = instance.jobs[i];
    JobInfo info;
    info.id = static_cast<JobId>(i);
    info.release = spec.release;
    info.deadline = spec.deadline;
    info.caps = s.caps;
    s.release.push_back(spec.release);
    s.deadline.push_back(spec.deadline);
    // Same construction order and the same RNG child stream per job as the
    // original heap engine — the determinism contract depends on it.
    Protocol* p =
        s.arena_owned
            ? factory.emplace(info, master.child(static_cast<JobId>(i) + 1),
                              s.arena)
            : factory(info, master.child(static_cast<JobId>(i) + 1))
                  .release();
    p->set_tracer(s.config.tracer);
    s.proto.push_back(p);
    JobResult result;
    result.id = info.id;
    result.release = spec.release;
    result.deadline = spec.deadline;
    s.results.push_back(result);
  }
}

Simulation::Simulation(std::unique_ptr<ArrivalProcess> arrivals,
                       const ProtocolFactory& factory, SimConfig config,
                       std::unique_ptr<Jammer> jammer)
    : impl_(std::make_unique<Impl>()) {
  if (arrivals == nullptr) {
    throw std::invalid_argument("Simulation: arrival process must be non-null");
  }
  if (config.horizon <= 0) {
    throw std::invalid_argument(
        "Simulation: streaming mode requires an explicit horizon > 0 (an "
        "open-ended stream has no max_deadline to default to)");
  }
  Impl& s = *impl_;
  s.init(std::move(config), std::move(jammer));
  s.horizon = s.config.horizon;
  s.factory = factory;
  s.arena_owned = false;  // arena never frees; open-ended runs go heap
  s.arrivals = std::move(arrivals);
  s.pull_next();
  s.now = s.pending_spec ? s.pending_spec->release : 0;
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
  Impl& s = *impl_;
  if (id < s.base_id || s.ix(id) >= s.job_count() ||
      s.live_flag[s.ix(id)] == 0) {
    return nullptr;
  }
  return s.proto[s.ix(id)];
}

bool Simulation::step() {
  Impl& s = *impl_;
  if (s.finished) {
    return false;
  }

  // Fast-forward across idle gaps: nothing can happen on the channel while
  // no job is live.
  if (s.live.empty()) {
    Slot next_release = kMaxSlot;
    if (s.streaming()) {
      if (!s.pending_spec) {
        s.finished = true;
        return false;
      }
      next_release = s.pending_spec->release;
    } else {
      if (s.next_pending >= s.job_count()) {
        s.finished = true;
        return false;
      }
      next_release = s.release[s.next_pending];
    }
    if (next_release > s.now) {
      // A pending collision-cost freeze elapses across the skipped gap —
      // nobody is live to observe the frozen slots, so they are not
      // simulated (and not counted as cost slots).
      const Slot gap = next_release - s.now;
      for (Impl::Channel& ch : s.chans) {
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
  if (s.streaming()) {
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
        s.stream.add(result);
        if (s.config.keep_job_results) {
          s.finished_results.push_back(result);
        }
      }
      s.pull_next();
    }
  } else {
    while (s.next_pending < s.job_count() &&
           s.release[s.next_pending] <= s.now) {
      const JobId id = static_cast<JobId>(s.next_pending);
      if (s.deadline[id] > s.now) {
        s.live_flag[id] = 1;
        s.live_pos[id] = static_cast<std::uint32_t>(s.live.size());
        s.live.push_back(id);
        if (s.parked > 0) {
          s.awake_jobs.push_back(id);
        }
        s.min_deadline = std::min(s.min_deadline, s.deadline[id]);
        CRMD_TRACE(s.config.tracer, obs::EventKind::kJobActivate, s.now, id,
                   s.release[id], s.deadline[id]);
        JobInfo info;
        info.id = id;
        info.release = s.release[id];
        info.deadline = s.deadline[id];
        info.caps = s.caps;
        s.proto[id]->on_activate(info);
      } else {
        // Window already over (degenerate horizon cases); never activates.
        s.destroy_at(id);
      }
      ++s.next_pending;
    }
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
    Slot new_min = kMaxSlot;
    for (const JobId id : s.live) {
      const Slot d = s.deadline[s.ix(id)];
      if (d <= s.now) {
        s.to_retire.push_back(id);
      } else {
        new_min = std::min(new_min, d);
      }
    }
    for (const JobId id : s.to_retire) {
      s.retire(id);
    }
    s.min_deadline = new_min;
    if (s.live.empty()) {
      // All live jobs expired this slot; loop again from the top next call.
      if (s.streaming()) {
        s.maybe_compact();
      }
      return !s.finished;
    }
  }

  // Event-driven fast-forward (DESIGN.md §6j): park the jobs that hold a
  // dormancy promise and, when none is left awake, jump across the
  // provably silent run. Checked after activation/retirement (so the live
  // set is current) and before the fault phase (fast-forward and faults are
  // mutually exclusive; see Impl::ff_enabled).
  if (s.ff_enabled && s.park_or_skip()) {
    return !s.finished;
  }

  // Fault phase: advance each live job's crash/stall/skew state. Dead jobs
  // retire immediately (the channel cannot tell a dead job from an absent
  // one); dark jobs stay live but neither transmit nor listen this slot.
  // The dark flags of this slot's live set are (re)written unconditionally,
  // so no all-jobs clear is needed — stale entries of retired jobs are
  // never read again.
  const std::int64_t faults_before =
      s.injector ? s.injector->total_injected() : 0;
  if (s.injector != nullptr) {
    s.to_retire.clear();
    std::int64_t dark_this_slot = 0;
    for (const JobId id : s.live) {
      const std::size_t i = s.ix(id);
      std::uint8_t is_dark = 0;
      switch (s.injector->tick(id, s.now)) {
        case FaultInjector::JobHealth::kHealthy:
          break;
        case FaultInjector::JobHealth::kDark:
          is_dark = 1;
          ++dark_this_slot;
          break;
        case FaultInjector::JobHealth::kDead:
          s.to_retire.push_back(id);
          break;
      }
      s.dark[i] = is_dark;
    }
    s.metrics.dark_job_slots += dark_this_slot;
    for (const JobId id : s.to_retire) {
      s.retire(id);
    }
    if (s.live.empty()) {
      if (s.streaming()) {
        s.maybe_compact();
      }
      return !s.finished;
    }
  }

  s.step_slot(faults_before);

  ++s.now;
  if (s.streaming()) {
    s.maybe_compact();
    if (s.live.empty() && !s.pending_spec) {
      s.finished = true;
    }
  } else if (s.live.empty() && s.next_pending >= s.job_count()) {
    s.finished = true;
  }
  return !s.finished;
}

SimResult Simulation::finish() {
  while (step()) {
  }
  Impl& s = *impl_;
  s.settle_parked();
  SimResult result;
  if (s.streaming()) {
    // Fold jobs still live at the horizon (never retired — matching batch
    // mode, which leaves horizon-cut jobs unretired and folds at finish).
    for (std::size_t i = 0; i < s.live_flag.size(); ++i) {
      if (s.live_flag[i] != 0) {
        s.live_flag[i] = 0;
        s.destroy_at(i);
        s.fold_streamed(i);
      }
    }
    s.live.clear();
    if (s.config.keep_job_results) {
      std::sort(s.finished_results.begin(), s.finished_results.end(),
                [](const JobResult& a, const JobResult& b) {
                  return a.id < b.id;
                });
      result.jobs = std::move(s.finished_results);
    }
    result.stream = s.stream;
  } else {
    // Fold the hot per-job counters into the cold results exactly once.
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      JobResult& r = s.results[i];
      r.live_slots = s.live_slot_count[i];
      r.dark_slots = s.dark_slot_count[i];
      r.transmissions = s.tx_count[i];
      r.listen_slots = s.listen_count[i];
    }
    result.jobs = s.results;
  }
  result.metrics = s.metrics;
  if (s.injector != nullptr) {
    const FaultInjector& inj = *s.injector;
    result.metrics.faults_injected = inj.total_injected();
    result.metrics.feedback_corruptions = inj.count(FaultKind::kFeedbackCorrupt);
    result.metrics.feedback_losses = inj.count(FaultKind::kFeedbackLoss);
    result.metrics.clock_skew_events = inj.count(FaultKind::kClockSkew);
    result.metrics.crashes = inj.count(FaultKind::kCrash);
    result.metrics.restarts = inj.count(FaultKind::kRestart);
    result.fault_events = s.injector->take_events();
  }
  result.slots = std::move(s.slot_trace);
  // Feed the process-wide profiler so every harness (replication sweep or
  // hand-rolled loop) gets slots/sec — and the mega-scale meta fields —
  // for free.
  obs::global_profiler().add_slots(result.metrics.slots_simulated);
  obs::global_profiler().add_fast_forward_slots(
      result.metrics.fast_forward_slots);
  obs::global_profiler().note_live_peak(result.metrics.live_peak);
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
