// crmd_trace — offline analytics over JSONL event streams (the
// --trace-jsonl format written by crmd_cli and obs::JsonlFileSink).
//
//   crmd_trace summary TRACE.jsonl
//       Per-kind roll-up: event counts, jobs, attempts, outcome tallies.
//
//   crmd_trace coverage TRACE.jsonl [--protocol=NAME] [--require=KIND,..]
//                       [--strict]
//       Audits the stream against the declared taxonomy (obs/taxonomy.hpp):
//       which expected kinds, stages, and transitions actually fired, which
//       never did. --protocol picks the family by longest-prefix match
//       (punctual, aligned, nocd, uniform; omit for channel-level only).
//       --require adds kinds that must appear regardless of family (e.g.
//       --require=fault for a fault-injection scenario). --strict exits 1
//       when any expected or required kind is missing.
//
//   crmd_trace diff A.jsonl B.jsonl
//       First-divergence comparison: exit 0 when the streams are
//       byte-equivalent event-for-event, exit 1 with the first divergent
//       event (index and slot) otherwise.
//
// Exit codes: 0 success / identical; 1 divergence or failed --strict;
// 2 usage, a flag the command does not take, or unreadable input.

#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/taxonomy.hpp"
#include "obs/trace_analysis.hpp"
#include "util/cli.hpp"

namespace {

using namespace crmd;

int usage() {
  std::cerr << "usage: crmd_trace summary TRACE.jsonl\n"
               "       crmd_trace coverage TRACE.jsonl [--protocol=NAME]\n"
               "                  [--require=KIND[,KIND...]] [--strict]\n"
               "       crmd_trace diff A.jsonl B.jsonl\n";
  return 2;
}

/// Splits a comma-separated --require list into EventKinds; returns false
/// (after printing the offender) on an unknown kind name.
bool parse_required(const std::string& spec,
                    std::vector<obs::EventKind>& out) {
  std::istringstream in(spec);
  std::string name;
  while (std::getline(in, name, ',')) {
    if (name.empty()) {
      continue;
    }
    obs::EventKind kind;
    if (!obs::parse_event_kind(name.c_str(), kind)) {
      std::cerr << "crmd_trace: unknown event kind '" << name << "'\n";
      return false;
    }
    out.push_back(kind);
  }
  return true;
}

int cmd_summary(const std::string& path) {
  const auto events = obs::load_trace_file(path);
  const obs::TraceSummary summary = obs::summarize(events);
  std::cout << "trace: " << path << "\n";
  obs::write_summary(std::cout, summary);
  return 0;
}

int cmd_coverage(const std::string& path, const util::Args& args) {
  const std::string protocol = args.get("protocol", "");
  std::vector<obs::EventKind> required;
  if (!parse_required(args.get("require", ""), required)) {
    return 2;
  }
  const bool strict = args.has("strict");
  args.reject_unread();
  const auto events = obs::load_trace_file(path);
  const obs::ProtocolTaxonomy* taxonomy = nullptr;
  if (!protocol.empty()) {
    taxonomy = obs::taxonomy_for_protocol(protocol);
    if (taxonomy == nullptr) {
      std::cout << "(no declared taxonomy for '" << protocol
                << "'; auditing channel-level kinds only)\n";
    }
  }
  const obs::CoverageReport report =
      obs::audit_coverage(events, taxonomy, required);
  std::cout << "trace: " << path << "\n";
  obs::write_coverage(std::cout, report);
  if (strict && !report.missing_kinds.empty()) {
    std::cerr << "crmd_trace: --strict: "
              << report.missing_kinds.size()
              << " expected/required kind(s) never fired\n";
    return 1;
  }
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const auto a = obs::load_trace_file(path_a);
  const auto b = obs::load_trace_file(path_b);
  const obs::Divergence div = obs::first_divergence(a, b);
  if (!div.diverged) {
    std::cout << "identical: " << a.size() << " events\n";
    return 0;
  }
  const auto describe = [](const std::optional<obs::ParsedEvent>& ev) {
    if (!ev.has_value()) {
      return std::string("<end of stream>");
    }
    std::ostringstream out;
    out << "slot " << ev->slot << " kind " << obs::to_string(ev->kind)
        << " seq " << ev->seq;
    if (ev->job != kNoJob) {
      out << " job " << ev->job;
    }
    out << " a=" << ev->a << " b=" << ev->b;
    if (!ev->label.empty()) {
      out << " label=" << ev->label;
    }
    return out.str();
  };
  // The first divergent *slot* is the earlier of the two sides' slots —
  // an insertion on one side shifts everything after it, but the earliest
  // differing event pins where the executions parted ways.
  Slot slot = -1;
  if (div.a.has_value()) {
    slot = div.a->slot;
  }
  if (div.b.has_value() && (slot < 0 || div.b->slot < slot)) {
    slot = div.b->slot;
  }
  std::cout << "diverged at event index " << div.index << " (slot " << slot
            << ")\n"
            << "  a: " << describe(div.a) << "\n"
            << "  b: " << describe(div.b) << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::vector<std::string>& pos = args.positional();
  if (pos.empty()) {
    return usage();
  }
  const std::string& command = pos[0];
  try {
    if (command == "summary" && pos.size() == 2) {
      args.reject_unread();
      return cmd_summary(pos[1]);
    }
    if (command == "coverage" && pos.size() == 2) {
      return cmd_coverage(pos[1], args);
    }
    if (command == "diff" && pos.size() == 3) {
      args.reject_unread();
      return cmd_diff(pos[1], pos[2]);
    }
  } catch (const std::invalid_argument& e) {  // a flag the command does not take
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "crmd_trace: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
