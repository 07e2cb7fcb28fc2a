#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "sim/metrics.hpp"

/// \file trace.hpp
/// CSV export of simulation artifacts: per-slot traces, per-job outcomes
/// and injected faults. Used by the CLI driver (`--trace`, `--jobs-csv`,
/// `--faults-csv`) and handy for offline plotting of any run.

namespace crmd::sim {

/// Writes the slot trace as CSV: slot, outcome, success_kind, contention,
/// transmitters, live_jobs, jammed, faults. The records come from a
/// SlotObserver (Simulation::set_observer).
void write_slot_trace_csv(std::ostream& out,
                          const std::vector<SlotRecord>& slots);

/// Writes per-job outcomes as CSV: id, release, deadline, window, success,
/// success_slot, latency, transmissions, live_slots, dark_slots.
void write_job_results_csv(std::ostream& out,
                           const std::vector<JobResult>& jobs);

/// Writes the injected faults among `events` as CSV: slot, kind, job, one
/// row per obs::EventKind::kFault event in order (kind named by
/// to_string(FaultKind)); every other event is skipped. Feed it what a
/// sink on SimConfig::tracer collected from a run with a FaultPlan.
void write_fault_events_csv(std::ostream& out,
                            std::span<const obs::TraceEvent> events);

/// Convenience wrappers writing to a file path; return false on I/O error.
bool save_slot_trace_csv(const std::string& path,
                         const std::vector<SlotRecord>& slots);
bool save_job_results_csv(const std::string& path,
                          const std::vector<JobResult>& jobs);
bool save_fault_events_csv(const std::string& path,
                           std::span<const obs::TraceEvent> events);

}  // namespace crmd::sim
