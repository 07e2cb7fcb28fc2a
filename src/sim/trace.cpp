#include "sim/trace.hpp"

#include <fstream>
#include <ostream>

#include "sim/faults.hpp"

namespace crmd::sim {

void write_slot_trace_csv(std::ostream& out,
                          const std::vector<SlotRecord>& slots) {
  out << "slot,outcome,success_kind,contention,transmitters,live_jobs,"
         "jammed,faults\n";
  for (const auto& rec : slots) {
    out << rec.slot << ',' << to_string(rec.outcome) << ','
        << (rec.outcome == SlotOutcome::kSuccess
                ? to_string(rec.success_kind)
                : "")
        << ',' << rec.contention << ',' << rec.transmitters << ','
        << rec.live_jobs << ',' << (rec.jammed ? 1 : 0) << ',' << rec.faults
        << '\n';
  }
}

void write_job_results_csv(std::ostream& out,
                           const std::vector<JobResult>& jobs) {
  out << "id,release,deadline,window,success,success_slot,latency,"
         "transmissions,live_slots,dark_slots\n";
  for (const auto& job : jobs) {
    out << job.id << ',' << job.release << ',' << job.deadline << ','
        << job.window() << ',' << (job.success ? 1 : 0) << ','
        << (job.success ? job.success_slot : -1) << ',' << job.latency()
        << ',' << job.transmissions << ',' << job.live_slots << ','
        << job.dark_slots << '\n';
  }
}

void write_fault_events_csv(std::ostream& out,
                            std::span<const obs::TraceEvent> events) {
  out << "slot,kind,job\n";
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind == obs::EventKind::kFault) {
      out << ev.slot << ',' << to_string(static_cast<FaultKind>(ev.a)) << ','
          << ev.job << '\n';
    }
  }
}

bool save_slot_trace_csv(const std::string& path,
                         const std::vector<SlotRecord>& slots) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  write_slot_trace_csv(out, slots);
  return static_cast<bool>(out);
}

bool save_job_results_csv(const std::string& path,
                          const std::vector<JobResult>& jobs) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  write_job_results_csv(out, jobs);
  return static_cast<bool>(out);
}

bool save_fault_events_csv(const std::string& path,
                           std::span<const obs::TraceEvent> events) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  write_fault_events_csv(out, events);
  return static_cast<bool>(out);
}

}  // namespace crmd::sim
