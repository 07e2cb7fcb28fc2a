#include "obs/trace.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace crmd::obs {

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kJobActivate:
      return "job-activate";
    case EventKind::kJobRetire:
      return "job-retire";
    case EventKind::kTransmit:
      return "transmit";
    case EventKind::kSlotResolved:
      return "slot-resolved";
    case EventKind::kSlotPerceived:
      return "slot-perceived";
    case EventKind::kSuccessCredit:
      return "success-credit";
    case EventKind::kFault:
      return "fault";
    case EventKind::kCaptureWin:
      return "capture-win";
    case EventKind::kCostSlot:
      return "cost-slot";
    case EventKind::kIdleSkip:
      return "idle-skip";
    case EventKind::kRadioSleep:
      return "radio-sleep";
    case EventKind::kRadioWake:
      return "radio-wake";
    case EventKind::kStage:
      return "stage";
    case EventKind::kRoundSync:
      return "round-sync";
    case EventKind::kBecomeLeader:
      return "become-leader";
    case EventKind::kWindowTrim:
      return "window-trim";
    case EventKind::kDesyncEvidence:
      return "desync-evidence";
    case EventKind::kEstimate:
      return "estimate";
    case EventKind::kClassActive:
      return "class-active";
    case EventKind::kSubphase:
      return "subphase";
    case EventKind::kSchedule:
      return "schedule";
  }
  return "unknown";
}

bool parse_event_kind(const char* name, EventKind& out) noexcept {
  if (name == nullptr) {
    return false;
  }
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    if (std::strcmp(name, to_string(kind)) == 0) {
      out = kind;
      return true;
    }
  }
  return false;
}

namespace {

/// Shortest %g rendering (JSON-safe: always finite inputs here).
std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

void write_event_jsonl(std::ostream& out, const TraceEvent& ev) {
  out << "{\"seq\":" << ev.seq << ",\"slot\":" << ev.slot << ",\"kind\":\""
      << to_string(ev.kind) << '"';
  if (ev.job != kNoJob) {
    out << ",\"job\":" << ev.job;
  }
  out << ",\"a\":" << ev.a << ",\"b\":" << ev.b;
  if (ev.x != 0.0) {
    out << ",\"x\":" << fmt_double(ev.x);
  }
  if (ev.label != nullptr) {
    out << ",\"label\":\"" << ev.label << '"';
  }
  out << "}\n";
}

// ---- Tracer ---------------------------------------------------------------

Tracer::~Tracer() { close(); }

void Tracer::add_sink(std::shared_ptr<EventSink> sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(sink));
}

void Tracer::emit(EventKind kind, Slot slot, JobId job, std::int64_t a,
                  std::int64_t b, double x, const char* label) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    ++dropped_;
    return;
  }
  const TraceEvent ev{next_seq_++, slot, kind, job, a, b, x, label};
  // No sink to hear it: counted, so a truncated trace cannot masquerade
  // as complete.
  if (sinks_.empty()) {
    ++dropped_;
    return;
  }
  for (const auto& sink : sinks_) {
    sink->on_event(ev);
  }
}

void Tracer::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return;
  }
  closed_ = true;
  for (const auto& sink : sinks_) {
    sink->close();
  }
}

// ---- JSONL sinks ----------------------------------------------------------

void JsonlSink::on_event(const TraceEvent& ev) {
  write_event_jsonl(*out_, ev);
}

struct JsonlFileSink::Impl {
  std::ofstream out;
};

JsonlFileSink::JsonlFileSink(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->out.open(path);
  if (!impl_->out) {
    throw std::runtime_error("JsonlFileSink: cannot open " + path);
  }
}

JsonlFileSink::~JsonlFileSink() = default;

void JsonlFileSink::on_event(const TraceEvent& ev) {
  write_event_jsonl(impl_->out, ev);
}

void JsonlFileSink::close() { impl_->out.flush(); }

// ---- Chrome trace sink ----------------------------------------------------

namespace {

constexpr const char* kChromeHeader =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
    "\"args\":{\"name\":\"crmd\"}}";
constexpr const char* kChromeFooter = "\n]}\n";

}  // namespace

struct ChromeTraceSink::Impl {
  std::ofstream file;                // open while streaming to a path
  std::vector<std::string> records;  // path-less (render-only) sinks
  struct OpenSpan {
    const char* name;
    Slot since;
  };
  std::map<JobId, OpenSpan> open;  // per-tid current stage span
  std::map<JobId, bool> named;     // thread_name metadata emitted?
  Slot last_slot = 0;

  void add(const std::string& rec) {
    if (file.is_open()) {
      file << ",\n" << rec;
    } else {
      records.push_back(rec);
    }
  }

  void name_thread(JobId job) {
    if (job == kNoJob || named[job]) {
      return;
    }
    named[job] = true;
    std::ostringstream os;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << job
       << ",\"args\":{\"name\":\"job " << job << "\"}}";
    add(os.str());
  }

  void close_span(JobId job, Slot until) {
    const auto it = open.find(job);
    if (it == open.end()) {
      return;
    }
    const Slot dur = until > it->second.since ? until - it->second.since : 1;
    std::ostringstream os;
    os << "{\"name\":\"" << it->second.name
       << "\",\"ph\":\"X\",\"ts\":" << it->second.since << ",\"dur\":" << dur
       << ",\"pid\":0,\"tid\":" << job << "}";
    add(os.str());
    open.erase(it);
  }

  // Closes dangling spans at the last seen slot (+1 so they are visible).
  void close_open_spans() {
    while (!open.empty()) {
      close_span(open.begin()->first, last_slot + 1);
    }
  }
};

ChromeTraceSink::ChromeTraceSink(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  if (!path.empty()) {
    impl_->file.open(path);
    if (!impl_->file) {
      throw std::runtime_error("ChromeTraceSink: cannot open " + path);
    }
    impl_->file << kChromeHeader;
  }
}

ChromeTraceSink::~ChromeTraceSink() = default;

void ChromeTraceSink::on_event(const TraceEvent& ev) {
  Impl& s = *impl_;
  s.last_slot = ev.slot;
  switch (ev.kind) {
    case EventKind::kStage: {
      s.name_thread(ev.job);
      s.close_span(ev.job, ev.slot);
      s.open[ev.job] =
          Impl::OpenSpan{ev.label != nullptr ? ev.label : "stage", ev.slot};
      return;
    }
    case EventKind::kJobRetire: {
      s.close_span(ev.job, ev.slot);
      return;  // retirement is the span edge; no extra instant
    }
    case EventKind::kSlotResolved: {
      std::ostringstream os;
      os << "{\"name\":\"contention\",\"ph\":\"C\",\"ts\":" << ev.slot
         << ",\"pid\":0,\"args\":{\"C\":" << fmt_double(ev.x)
         << ",\"tx\":" << ev.b << "}}";
      s.add(os.str());
      return;
    }
    case EventKind::kTransmit:
    case EventKind::kSlotPerceived:
      return;  // too dense for a span view; JSONL keeps them
    default: {
      s.name_thread(ev.job);
      std::ostringstream os;
      os << "{\"name\":\"" << (ev.label != nullptr ? ev.label : to_string(ev.kind))
         << "\",\"ph\":\"i\",\"ts\":" << ev.slot << ",\"pid\":0,\"tid\":"
         << (ev.job == kNoJob ? 0 : ev.job) << ",\"s\":\"t\",\"args\":{\"a\":"
         << ev.a << ",\"b\":" << ev.b << "}}";
      s.add(os.str());
      return;
    }
  }
}

void ChromeTraceSink::render(std::ostream& out) {
  Impl& s = *impl_;
  s.close_open_spans();
  out << kChromeHeader;
  for (const auto& rec : s.records) {
    out << ",\n" << rec;
  }
  out << kChromeFooter;
}

void ChromeTraceSink::close() {
  Impl& s = *impl_;
  if (!s.file.is_open()) {
    return;  // path-less, or already closed
  }
  s.close_open_spans();
  s.file << kChromeFooter;
  s.file.close();
}

}  // namespace crmd::obs
