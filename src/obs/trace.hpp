#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/events.hpp"

/// \file trace.hpp (obs)
/// The event tracing session: protocols and the simulator emit TraceEvents
/// through a Tracer, which stamps each with its seq and hands it straight
/// to any number of sinks (JSONL, Chrome trace-event JSON, the watchdog,
/// in-memory collectors).
///
/// Cost model — the property the whole design hangs on:
///   * tracing OFF: the emission site is `CRMD_TRACE(ptr, ...)` where
///     `ptr == nullptr`; the macro compiles to one pointer test. No
///     tracer, no sinks, no RNG perturbation — bit-identical runs (tested
///     by ObsEndToEnd.TracingOnIsBitIdenticalToTracingOff, measured by
///     bench_micro).
///   * tracing ON, no sink: one uncontended lock and a counter bump per
///     event; the event is counted in dropped().
///   * tracing ON with sinks: one uncontended lock plus each sink's
///     on_event, called inline.
///
/// Emission must never change protocol behavior: emitters may not draw
/// from protocol RNG streams and sinks only observe.
///
/// Thread safety: every member function may be called from any number of
/// threads. One mutex covers seq stamping and the sink calls, so sinks
/// see events in seq order and never see concurrent on_event calls. With
/// concurrent emitters the *interleaving* of events across threads is
/// nondeterministic — so runs on the worker pool trace through
/// obs::run_traced (run_traced.hpp), which gives each parallel task its
/// own Tracer and keeps sink streams bit-identical for every worker count.

namespace crmd::obs {

/// Consumer of a drained event stream. Sinks see events in emission
/// (seq) order.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// One event, in seq order.
  virtual void on_event(const TraceEvent& event) = 0;

  /// Stream end: write footers, flush files. Idempotent.
  virtual void close() {}
};

/// A tracing session. Create one per run (or per process), hand
/// `Tracer*` to `sim::SimConfig::tracer`, and close() (or destroy) when
/// done. Null `Tracer*` everywhere means tracing is off.
class Tracer {
 public:
  Tracer() = default;
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Registers a sink. It sees the events emitted from now on; earlier
  /// ones are gone.
  void add_sink(std::shared_ptr<EventSink> sink);

  /// Stamps the next seq on one event and passes it to every sink.
  /// Thread-safe.
  void emit(EventKind kind, Slot slot, JobId job = kNoJob, std::int64_t a = 0,
            std::int64_t b = 0, double x = 0.0, const char* label = nullptr);

  /// Closes every sink. Further emits are discarded. Idempotent and
  /// thread-safe.
  void close();

  /// Events stamped with a seq so far (delivered or dropped while no sink
  /// was attached; not those emitted after close()).
  [[nodiscard]] std::uint64_t emitted() const noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    return next_seq_;
  }

  /// Events that never reached a sink: emitted while no sink was attached,
  /// or after close(). With a sink attached before the first emit this
  /// stays 0 until close(). A nonzero value means an exported trace is
  /// incomplete; bench_common and crmd_cli surface it as a warning and a
  /// metrics-registry counter.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  mutable std::mutex mu_;  // guards every field below
  std::vector<std::shared_ptr<EventSink>> sinks_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  bool closed_ = false;
};

/// Collects events into a vector (tests, ad-hoc analysis): every event, or
/// only those of one kind.
class CollectSink final : public EventSink {
 public:
  CollectSink() = default;
  /// Keeps only the events of `kind` (e.g. kFault for a fault log).
  explicit CollectSink(EventKind kind) : only_(kind) {}

  void on_event(const TraceEvent& event) override {
    if (!only_ || event.kind == *only_) {
      events_.push_back(event);
    }
  }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  /// Moves the collected events out, leaving the sink empty.
  [[nodiscard]] std::vector<TraceEvent> take() noexcept {
    return std::exchange(events_, {});
  }

 private:
  std::optional<EventKind> only_;
  std::vector<TraceEvent> events_;
};

/// Writes one JSON object per event, newline-delimited (JSONL). The stream
/// is borrowed and must outlive the sink.
class JsonlSink final : public EventSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(&out) {}
  void on_event(const TraceEvent& event) override;

 private:
  std::ostream* out_;
};

/// JsonlSink that owns the file it writes to.
class JsonlFileSink final : public EventSink {
 public:
  /// Throws std::runtime_error when the file cannot be opened.
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;
  void on_event(const TraceEvent& event) override;
  void close() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Emits Chrome trace-event JSON (the `chrome://tracing` / Perfetto
/// format): stage transitions become per-job "X" (complete) spans,
/// everything else instant events, and per-slot contention a counter
/// track. With a path, each record is written to the file as it is
/// formatted, and close() ends the document; only the open stage spans
/// are held in memory. Without one (tests), the records are kept for
/// render().
class ChromeTraceSink final : public EventSink {
 public:
  /// Streams to `path`, or keeps the records for render() when `path` is
  /// empty. Throws std::runtime_error when the file cannot be created.
  explicit ChromeTraceSink(const std::string& path);
  ~ChromeTraceSink() override;

  void on_event(const TraceEvent& event) override;
  /// Closes the spans still open and ends the file's document. A sink
  /// destroyed without close() leaves the document unterminated.
  void close() override;

  /// Renders a path-less sink's document to any stream: the same bytes a
  /// sink with a path writes to its file over the same events.
  void render(std::ostream& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Writes a single event as one JSONL line (shared by sinks and tests).
void write_event_jsonl(std::ostream& out, const TraceEvent& event);

}  // namespace crmd::obs

/// Emission macro: zero work when `tracer` is null, one call otherwise.
/// Usage: CRMD_TRACE(obs_, obs::EventKind::kStage, slot, job, from, to).
/// Compile out entirely with -DCRMD_TRACING_DISABLED (the microbenchmark
/// measures the runtime-off cost; this kills even the pointer test).
#ifdef CRMD_TRACING_DISABLED
#define CRMD_TRACE(tracer, ...) \
  do {                          \
  } while (0)
#else
#define CRMD_TRACE(tracer, ...)        \
  do {                                 \
    if ((tracer) != nullptr) {         \
      (tracer)->emit(__VA_ARGS__);     \
    }                                  \
  } while (0)
#endif
