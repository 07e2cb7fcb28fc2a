#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/channel.hpp"
#include "sim/message.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

/// \file protocol.hpp
/// The per-job protocol interface every algorithm in this library
/// implements (UNIFORM, ALIGNED, PUNCTUAL, and the baselines).
///
/// Model fidelity: a protocol instance is the *local* program of one job.
/// It sees only (a) how many slots have elapsed since its own release, (b)
/// the channel feedback of each slot while it is live, and (c) its own
/// window size. It has no job identifier it may act on and no global clock
/// — with one sanctioned exception: §3's ALIGNED analysis assumes
/// power-of-2-aligned windows whose boundaries provide implicit
/// synchronization, which we surface as the global slot index in
/// `SlotView::global_slot`. PUNCTUAL never reads it.

namespace crmd::obs {
class Tracer;
}  // namespace crmd::obs

namespace crmd::sim {

/// State the jobs of one run share (DESIGN.md §6e). The engine makes one
/// per Simulation, and hands it to every protocol in JobInfo::run, only when
/// the run guarantees a common view: every job that ticks in a slot and
/// does not sleep hears the same feedback as every other
/// (SimConfig::common_view). A protocol keeps here what each of its jobs
/// would otherwise replicate alike — ALIGNED's pecking-order schedule — as
/// one object of a type it alone names, so it can tell its own apart.
class RunState {
 public:
  /// The run's object of type T, value-initialized on first use. Its
  /// address stays valid for the whole run.
  template <typename T>
  [[nodiscard]] T& get() {
    for (const Entry& e : entries_) {
      if (e.tag == &kTag<T>) {
        return static_cast<Holder<T>&>(*e.object).value;
      }
    }
    auto holder = std::make_unique<Holder<T>>();
    T& ref = holder->value;
    entries_.push_back({&kTag<T>, std::move(holder)});
    return ref;
  }

 private:
  /// One distinct address per type, the key of its entry.
  template <typename T>
  static constexpr char kTag = 0;

  struct Object {
    virtual ~Object() = default;
  };
  template <typename T>
  struct Holder final : Object {
    T value{};
  };
  struct Entry {
    const void* tag;
    std::unique_ptr<Object> object;
  };
  std::vector<Entry> entries_;
};

/// Immutable facts a job knows about itself when it activates.
struct JobInfo {
  /// Harness bookkeeping id; also stamped into transmitted messages so the
  /// simulator can credit successes. Never used in decisions.
  JobId id = kNoJob;
  /// Release slot (global): the job is live in window [release, deadline).
  Slot release = 0;
  /// Deadline slot (global, exclusive).
  Slot deadline = 0;
  /// What the channel's feedback model advertises (set by the simulator
  /// from SimConfig::feedback). Knowing the radio hardware is legitimate
  /// deployment-time information, so protocols may condition their
  /// degraded-mode behavior on it — e.g. ALIGNED and PUNCTUAL fall back to
  /// conservative blind schedules when `caps.collision_detection` is off
  /// (DESIGN.md §6f). Defaults to the paper's full ternary channel.
  ChannelCaps caps;
  /// The run's shared state, or null: the engine sets it only for runs with
  /// a common view (see RunState). Never set for a protocol built outside
  /// the engine, nor by tests/reference_sim.hpp.
  RunState* run = nullptr;

  /// Window size w_j = deadline - release.
  [[nodiscard]] Slot window() const noexcept { return deadline - release; }
};

/// What a protocol sees about "now".
struct SlotView {
  /// Slots elapsed since this job's release (0 in the release slot).
  Slot since_release = 0;
  /// Global slot index. Only ALIGNED (and harness-side diagnostics) may use
  /// this — see the file comment.
  Slot global_slot = 0;
};

///// A dormancy promise for the fast-forward engine (DESIGN.md §6j): "for
/// the next `slots` slots, starting with the one being queried, I will not
/// transmit, I will declare a constant probability `prob`, any feedback I
/// observe leaves my state unchanged (I did not transmit, so success/noise
/// concern other jobs), and done() stays false." `slots == 0` means no
/// promise — the engine must simulate the slot. Protocols with pre-drawn
/// schedules (UNIFORM's attempt list, BEB's backoff slot) can promise the
/// whole gap to their next attempt; adaptive per-slot protocols simply
/// inherit the no-promise default.
struct DormantSpan {
  Slot slots = 0;
  double prob = 0.0;
};

/// A protocol's decision for one slot.
struct SlotAction {
  /// Whether to transmit this slot. When false the job listens — unless it
  /// also declares `sleep`.
  bool transmit = false;
  /// Radio-off declaration (DESIGN.md §6k): "this slot's feedback content
  /// cannot change my state — I am not listening." Only meaningful when
  /// `transmit` is false (a transmitter is awake by definition; the
  /// simulator ignores sleep on transmit slots). The declaration is
  /// *enforced*: a sleeper's perceived feedback is scrubbed to silence
  /// before on_feedback, so a protocol that lies sleeps through real cues
  /// rather than silently cheating the energy meter. on_feedback is still
  /// called every slot (it is the protocol's timer tick). A dormant span
  /// is exactly a run of sleep slots, so fast-forwarded gaps batch-account
  /// the same energy the slot-by-slot engine would.
  bool sleep = false;
  /// The message to put on the channel when `transmit` is true.
  Message message;
  /// The probability p_j(t) with which this job decided to transmit in this
  /// slot, *declared for metrics*: §2.1 defines the contention C(t) as the
  /// sum of these. Deterministic transmissions declare 1, deterministic
  /// silence declares 0. Harness-only; never visible to other jobs.
  double declared_prob = 0.0;
};

/// Per-job protocol state machine.
///
/// Lifecycle: construct -> on_activate (once, in the release slot) -> for
/// each live slot: on_slot (decide) then on_feedback (observe the resolved
/// slot). The simulator drops the job at its deadline, when `done()`
/// becomes true, or when its data message is delivered (whichever first).
class Protocol {
 public:
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Called once when the job becomes live.
  virtual void on_activate(const JobInfo& info) = 0;

  /// Decide this slot's action. Called once per live slot, before the
  /// channel resolves.
  [[nodiscard]] virtual SlotAction on_slot(const SlotView& view) = 0;

  /// Observe the resolved slot (the same feedback every listener gets).
  virtual void on_feedback(const SlotView& view, const SlotFeedback& fb) = 0;

  /// True once the job will never transmit again — it succeeded, completed
  /// its algorithm without success ("gives up", §3 Truncation), or has
  /// nothing left to do. The simulator removes done jobs from the live set.
  /// It reads done() once per slot, right after this job's own on_feedback
  /// (for a job dark that slot, in its place), before later jobs observe
  /// the slot — so the answer may depend only on this job's own state.
  [[nodiscard]] virtual bool done() const = 0;

  /// Optional dormancy promise for the fast-forward engine (see
  /// DormantSpan). Called only under SimConfig::fast_forward, between the
  /// activation/retire phases and the decision phase, with the same view
  /// on_slot would receive. The default — no promise — is always safe and
  /// makes fast-forward a provable no-op for this protocol.
  [[nodiscard]] virtual DormantSpan dormant_span(const SlotView& view) const {
    (void)view;
    return {};
  }

  /// Attaches the (optional) tracing session. Called by the simulator
  /// before on_activate; null means tracing is off. Instrumentation must
  /// never change decisions or RNG draws — emitting is observe-only (see
  /// obs/trace.hpp for the cost model).
  void set_tracer(obs::Tracer* tracer) noexcept { obs_ = tracer; }

 protected:
  Protocol() = default;

  /// Tracing session for CRMD_TRACE emission points; null when off.
  obs::Tracer* obs_ = nullptr;
};

/// The engine state of one Simulation (sim/engine.hpp, internal).
struct Engine;

/// One slot of the engine's pipeline, compiled for one protocol class.
using SlotPipeline = void (*)(Engine& engine, std::int64_t faults_before);

/// The slot pipeline for runs whose protocols are all of class P (defined in
/// sim/engine.hpp). P = Protocol is the virtual-call instantiation.
template <typename P>
void step_slot(Engine& engine, std::int64_t faults_before);

class ProtocolFactory;

template <typename P, typename... Bound>
[[nodiscard]] ProtocolFactory make_arena_factory(Bound... bound);

/// Creates the protocol instance for one job. `rng` is that job's private,
/// deterministically derived random stream.
///
/// Two construction paths coexist:
///  - the *heap* path (`operator()`) returns a `unique_ptr` — this is the
///    historical signature, and any callable with it converts implicitly,
///    so ad-hoc factories (tests, examples) keep working unchanged;
///  - the *arena* path (`emplace`) constructs the protocol in place inside
///    a per-simulation MonotonicArena: one bump allocation per job instead
///    of one heap object, and all of a run's protocols packed
///    contiguously. The simulator uses it for batch runs only; an arena
///    never frees, so streaming runs use the heap path.
///
/// The simulator calls the factory when a job activates, never for a job
/// that does not. The registered factories (`make_*_factory` across core/
/// and baselines/) provide both paths; the simulator falls back to the
/// heap path — and takes over ownership via `delete` — when a factory is
/// heap-only.
///
/// A factory from make_arena_factory<P> also carries `pipeline()`, the
/// engine's slot pipeline compiled for P. No other constructor sets it, so
/// a factory built from lambdas — a test's, or a decorator wrapping a
/// registered factory — runs the virtual-call pipeline (DESIGN.md §6e).
class ProtocolFactory {
 public:
  using HeapFn =
      std::function<std::unique_ptr<Protocol>(const JobInfo&, util::Rng)>;
  using ArenaFn = std::function<Protocol*(const JobInfo&, util::Rng,
                                          util::MonotonicArena&)>;

  ProtocolFactory() = default;

  /// Implicit conversion from any legacy heap-signature callable.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ProtocolFactory> &&
                std::is_invocable_r_v<std::unique_ptr<Protocol>, F&,
                                      const JobInfo&, util::Rng>>>
  ProtocolFactory(F fn)  // NOLINT(google-explicit-constructor)
      : heap_(std::move(fn)) {}

  /// Full factory with both construction paths.
  ProtocolFactory(HeapFn heap, ArenaFn arena)
      : heap_(std::move(heap)), arena_(std::move(arena)) {}

  /// True when a heap path is installed (the factory is usable at all).
  explicit operator bool() const noexcept {
    return static_cast<bool>(heap_);
  }

  /// Heap path: builds the protocol with normal ownership.
  std::unique_ptr<Protocol> operator()(const JobInfo& info,
                                       util::Rng rng) const {
    return heap_(info, std::move(rng));
  }

  /// True when `emplace` may be called.
  [[nodiscard]] bool arena_aware() const noexcept {
    return static_cast<bool>(arena_);
  }

  /// Arena path: constructs in place; the arena owns the memory, the caller
  /// owns the destructor call (see util/arena.hpp).
  Protocol* emplace(const JobInfo& info, util::Rng rng,
                    util::MonotonicArena& arena) const {
    return arena_(info, std::move(rng), arena);
  }

  /// The slot pipeline compiled for the one class this factory builds, or
  /// null when the engine must run step_slot<Protocol>.
  [[nodiscard]] SlotPipeline pipeline() const noexcept { return pipeline_; }

 private:
  template <typename P, typename... Bound>
  friend ProtocolFactory make_arena_factory(Bound... bound);

  ProtocolFactory(HeapFn heap, ArenaFn arena, SlotPipeline typed)
      : heap_(std::move(heap)),
        arena_(std::move(arena)),
        pipeline_(typed) {}

  HeapFn heap_;
  ArenaFn arena_;
  SlotPipeline pipeline_ = nullptr;
};

/// Builds an arena-aware factory for the final protocol class P constructed
/// as `P(bound..., rng)` — the shape of every registered protocol (one
/// whose parameters depend on the JobInfo sets them in on_activate, as
/// ALOHA's window-scaled rate does). The factory carries step_slot<P>, the
/// slot pipeline with P's calls bound directly; the engine picks it once
/// per run, so P's per-slot methods can inline into the decision and
/// feedback loops. A visible definition is not enough for that: each must
/// be a small header body that keeps its rare paths out of line
/// (DESIGN.md §6e). The call instantiates
/// step_slot<P>, so the calling translation unit must include
/// sim/engine.hpp (the link fails otherwise). Any other factory runs the
/// virtual-call pipeline, step_slot<Protocol>.
template <typename P, typename... Bound>
ProtocolFactory make_arena_factory(Bound... bound) {
  static_assert(std::is_final_v<P>,
                "the typed pipeline binds P's calls directly");
  return ProtocolFactory(
      [bound...](const JobInfo& /*info*/, util::Rng rng) {
        return std::make_unique<P>(bound..., std::move(rng));
      },
      [bound...](const JobInfo& /*info*/, util::Rng rng,
                 util::MonotonicArena& arena) -> Protocol* {
        return arena.create<P>(bound..., std::move(rng));
      },
      &step_slot<P>);
}

}  // namespace crmd::sim
