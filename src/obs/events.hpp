#pragma once

#include <cstddef>
#include <cstdint>

#include "util/types.hpp"

/// \file events.hpp
/// The protocol-internal event taxonomy: everything a run can *explain*
/// about itself beyond the channel-level SlotRecord stream.
///
/// The paper's guarantees live in quantities the channel trace cannot show:
/// ALIGNED's contention envelope is maintained by estimation updates and
/// class hand-offs (§3), PUNCTUAL's success path is a walk through its
/// stage machine (§4), and fault injection perturbs what individual jobs
/// perceive. A TraceEvent is one timestamped, attributed fact from inside
/// that machinery. Events are fixed-size PODs, so emitting one allocates
/// nothing and a collector or a per-task recording (run_traced.hpp) stores
/// it by plain copy.
///
/// Payload convention: `a` and `b` are kind-specific integer arguments,
/// `x` a kind-specific real argument, and `label` an optional static
/// string naming the event more precisely than the kind (e.g. the PUNCTUAL
/// stage name). `label` must point at storage outliving the tracer —
/// string literals and to_string(Stage) tables qualify.

namespace crmd::obs {

/// What happened. Channel-level kinds are emitted by the simulator;
/// protocol-level kinds by the protocol state machines themselves.
enum class EventKind : std::uint8_t {
  // --- channel level (emitted by sim::Simulation) -------------------------
  kJobActivate,    ///< job became live; a=release, b=deadline
  kJobRetire,      ///< job left the live set; a=1 when it succeeded
  kTransmit,       ///< one transmission; a=MessageKind, x=declared prob
  kSlotResolved,   ///< slot resolved; a=SlotOutcome, b=transmitters,
                   ///< x=contention C(t)
  kSlotPerceived,  ///< listener-perceived outcome after the feedback model
                   ///< (before per-job faults); a=SlotOutcome, b=live jobs,
                   ///< x=awake (listening or transmitting) jobs (§6k)
  kSuccessCredit,  ///< data delivery credited; job=winner
  kFault,          ///< injected fault; a=FaultKind (see sim/faults.hpp)
  kCaptureWin,     ///< capture model leaked one winner out of a collision;
                   ///< job=winner, a=colliders, x=alpha
  kCostSlot,       ///< slot frozen by collision-cost recovery; a=remaining
                   ///< freeze after this slot, b=transmitters wasted
  kIdleSkip,       ///< fast-forward batch: a provably silent run of slots
                   ///< accounted without per-slot simulation; slot=first
                   ///< skipped slot, a=span length, b=live jobs, x=the
                   ///< constant contention C(t) of every skipped slot
  kRadioSleep,     ///< job turned its radio off (DESIGN.md §6k): declared
                   ///< sleep after an awake slot, or entered a fast-forward
                   ///< dormant span; a=slots since release, b=channel
  kRadioWake,      ///< job turned its radio back on (transmitted or
                   ///< listened after a sleep slot); a=slots since release,
                   ///< b=channel

  // --- protocol level ------------------------------------------------------
  kStage,          ///< stage transition; a=from, b=to, label=to-name
  kRoundSync,      ///< PUNCTUAL locked onto the round grid; a=anchor slot
  kBecomeLeader,   ///< PUNCTUAL won a leader election; a=first lead round
  kWindowTrim,     ///< PUNCTUAL halved its window; a=new effective window
  kDesyncEvidence, ///< PUNCTUAL saw an impossible observation; a=count
  kEstimate,       ///< ALIGNED class estimate fixed; a=class, b=estimate
  kClassActive,    ///< ALIGNED active class changed; a=from, b=to
  kSubphase,       ///< ALIGNED broadcast subphase began; a=id, b=length
  kSchedule,       ///< UNIFORM picked its slots; a=attempts, x=per-slot p
};

/// Number of EventKind values (kSchedule is last by construction; the
/// static_assert in taxonomy.cpp trips if a new kind forgets to move it).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kSchedule) + 1;

/// Human-readable kind name (stable; used by the JSONL sink and tests).
[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// Inverse of to_string: parses a kind name as the JSONL sink writes it.
/// Returns false (out untouched) on an unknown name.
[[nodiscard]] bool parse_event_kind(const char* name, EventKind& out) noexcept;

/// One observed fact. 48 bytes; trivially copyable by design.
struct TraceEvent {
  std::uint64_t seq = 0;  ///< global emission order (stamped by the Tracer)
  Slot slot = 0;          ///< global slot index the event belongs to
  EventKind kind = EventKind::kSlotResolved;
  JobId job = kNoJob;     ///< owning job; kNoJob for channel-wide events
  std::int64_t a = 0;     ///< kind-specific (see EventKind comments)
  std::int64_t b = 0;     ///< kind-specific
  double x = 0.0;         ///< kind-specific
  const char* label = nullptr;  ///< optional static name (may be null)
};

static_assert(sizeof(TraceEvent) <= 64, "keep events cache-line sized");

}  // namespace crmd::obs
