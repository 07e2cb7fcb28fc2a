#include "layers.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <utility>

namespace perfbench {

using crmd::sim::DormantSpan;
using crmd::sim::JobInfo;
using crmd::sim::Protocol;
using crmd::sim::ProtocolFactory;
using crmd::sim::SlotAction;
using crmd::sim::SlotFeedback;
using crmd::sim::SlotView;

double ns_per_tick() {
  static const double ratio = [] {
    const std::int64_t n0 = now_ns();
    const std::int64_t k0 = ticks();
    while (now_ns() - n0 < 20'000'000) {
    }
    const std::int64_t n1 = now_ns();
    const std::int64_t k1 = ticks();
    return static_cast<double>(n1 - n0) / static_cast<double>(k1 - k0);
  }();
  return ratio;
}

double tick_overhead() {
  static const double overhead = [] {
    std::vector<std::int64_t> pairs(2001);
    for (auto& d : pairs) {
      const std::int64_t t0 = ticks();
      d = ticks() - t0;
    }
    std::nth_element(pairs.begin(), pairs.begin() + 1000, pairs.end());
    return static_cast<double>(pairs[1000]);
  }();
  return overhead;
}

const char* family_prefix(Family family) noexcept {
  switch (family) {
    case Family::kUniform:
      return "core.uniform";
    case Family::kAligned:
      return "core.aligned";
    case Family::kPunctual:
      return "core.punctual";
    case Family::kNocdRobust:
      return "core.nocd_robust";
    case Family::kEnergyBeb:
      return "baselines.energy_beb";
  }
  return "unknown";
}

std::optional<Family> family_of(const std::string& protocol) {
  if (protocol == "uniform") return Family::kUniform;
  if (protocol == "aligned") return Family::kAligned;
  if (protocol == "punctual") return Family::kPunctual;
  if (protocol == "nocd_robust") return Family::kNocdRobust;
  if (protocol == "energy_beb") return Family::kEnergyBeb;
  return std::nullopt;
}

double CallStats::mean_ns() const {
  if (sampled == 0) {
    return 0.0;
  }
  const double raw =
      static_cast<double>(sampled_ticks) / static_cast<double>(sampled);
  const double timer = empty > 0 ? static_cast<double>(empty_ticks) /
                                       static_cast<double>(empty)
                                 : tick_overhead();
  return std::max(0.0, raw - timer) * ns_per_tick();
}

double CallStats::total_ns() const {
  return mean_ns() * static_cast<double>(calls);
}

namespace {

/// One thread's counters, padded so workers never share a cache line.
struct alignas(64) ThreadCalls {
  CallTable table{};
};

std::mutex g_threads_mu;
std::deque<ThreadCalls> g_threads;  // stable addresses; outlives threads

// Constant-initialized, so reading it needs no TLS guard on the hot path.
thread_local ThreadCalls* tl_calls = nullptr;

ThreadCalls& local_calls() {
  if (tl_calls == nullptr) {
    const std::lock_guard<std::mutex> lock(g_threads_mu);
    tl_calls = &g_threads.emplace_back();
  }
  return *tl_calls;
}

/// Counts a call and times it when its per-thread ordinal falls on the
/// sampling grid (or always, for once-per-job calls).
template <typename F>
decltype(auto) timed_call(Family family, Call call, F&& fn) {
  CallStats& s = local_calls()
                     .table[static_cast<std::size_t>(family)]
                                [static_cast<std::size_t>(call)];
  const bool always = call == Call::kCtor || call == Call::kActivate;
  const std::int64_t ordinal = s.calls++;
  if (!always && ordinal % kSamplePeriod == kSamplePeriod / 2) {
    const std::int64_t t0 = ticks();
    s.empty_ticks += ticks() - t0;
    ++s.empty;
  }
  if (always || ordinal % kSamplePeriod == 0) {
    struct Stop {
      CallStats& s;
      std::int64_t t0 = ticks();
      ~Stop() {
        s.sampled_ticks += ticks() - t0;
        ++s.sampled;
      }
    } stop{s};
    return fn();
  }
  return fn();
}

/// Forwards every Protocol virtual to `inner_`, counting and sampling each
/// call. The tracer hand-off matters: the simulator attaches its tracer to
/// the object it holds (this decorator) through the non-virtual
/// set_tracer, so the decorator passes it on before activation.
class TimedProtocol final : public Protocol {
 public:
  TimedProtocol(Family family, Protocol* inner, bool arena_owned) noexcept
      : family_(family), inner_(inner), arena_owned_(arena_owned) {}

  ~TimedProtocol() override {
    if (arena_owned_) {
      inner_->~Protocol();
    } else {
      delete inner_;
    }
  }

  void on_activate(const JobInfo& info) override {
    RepTracker::note_activation(now_ns());
    inner_->set_tracer(obs_);
    timed_call(family_, Call::kActivate,
               [&] { inner_->on_activate(info); });
  }

  SlotAction on_slot(const SlotView& view) override {
    return timed_call(family_, Call::kOnSlot,
                      [&] { return inner_->on_slot(view); });
  }

  void on_feedback(const SlotView& view, const SlotFeedback& fb) override {
    timed_call(family_, Call::kOnFeedback,
               [&] { inner_->on_feedback(view, fb); });
  }

  [[nodiscard]] bool done() const override {
    return timed_call(family_, Call::kDone, [&] { return inner_->done(); });
  }

  [[nodiscard]] DormantSpan dormant_span(const SlotView& view) const override {
    return timed_call(family_, Call::kDormantSpan,
                      [&] { return inner_->dormant_span(view); });
  }

 private:
  Family family_;
  Protocol* inner_;
  bool arena_owned_;
};

}  // namespace

void reset_call_stats() {
  const std::lock_guard<std::mutex> lock(g_threads_mu);
  for (ThreadCalls& t : g_threads) {
    t.table = {};
  }
}

CallTable collect_call_stats() {
  const std::lock_guard<std::mutex> lock(g_threads_mu);
  CallTable sum{};
  for (const ThreadCalls& t : g_threads) {
    for (std::size_t f = 0; f < kFamilies; ++f) {
      for (std::size_t c = 0; c < kCalls; ++c) {
        sum[f][c].calls += t.table[f][c].calls;
        sum[f][c].sampled += t.table[f][c].sampled;
        sum[f][c].sampled_ticks += t.table[f][c].sampled_ticks;
        sum[f][c].empty += t.table[f][c].empty;
        sum[f][c].empty_ticks += t.table[f][c].empty_ticks;
      }
    }
  }
  return sum;
}

ProtocolFactory decorate_factory(ProtocolFactory inner, Family family) {
  auto shared = std::make_shared<const ProtocolFactory>(std::move(inner));
  ProtocolFactory::HeapFn heap = [shared, family](const JobInfo& info,
                                                  crmd::util::Rng rng) {
    std::unique_ptr<Protocol> p = timed_call(
        family, Call::kCtor, [&] { return (*shared)(info, std::move(rng)); });
    auto outer = std::make_unique<TimedProtocol>(family, p.get(), false);
    p.release();  // now owned by `outer`
    return std::unique_ptr<Protocol>(std::move(outer));
  };
  if (!shared->arena_aware()) {
    return ProtocolFactory(std::move(heap), nullptr);
  }
  ProtocolFactory::ArenaFn arena = [shared, family](
                                       const JobInfo& info,
                                       crmd::util::Rng rng,
                                       crmd::util::MonotonicArena& a)
      -> Protocol* {
    Protocol* p = timed_call(family, Call::kCtor, [&] {
      return shared->emplace(info, std::move(rng), a);
    });
    return a.create<TimedProtocol>(family, p, true);
  };
  return ProtocolFactory(std::move(heap), std::move(arena));
}

std::uint32_t SpanLog::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint32_t SpanLog::next_run() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_run_++;
}

void SpanLog::add(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << ",\"name\":\"" << s.name
        << "\",\"t0_ns\":" << s.t0 << ",\"t1_ns\":" << s.t1 << "}\n";
  }
  return static_cast<bool>(out);
}

struct RepTracker::Worker {
  RepTracker* owner = nullptr;
  bool rep_open = false;
  Span rep;
  bool construct_open = false;
  Span construct;
  Totals totals;

  void close_rep(std::int64_t t) {
    if (!rep_open) {
      return;
    }
    rep.t1 = t;
    owner->log_.add(rep);
    rep_open = false;
    construct_open = false;
  }
};

namespace {
thread_local RepTracker::Worker* tl_worker = nullptr;
}  // namespace

RepTracker::RepTracker(SpanLog& log) : log_(log) {}

RepTracker::~RepTracker() {
  // Worker threads have exited by now; only this thread may still point at
  // one of this tracker's workers.
  if (tl_worker != nullptr && tl_worker->owner == this) {
    tl_worker = nullptr;
  }
}

RepTracker::Worker& RepTracker::worker() {
  if (tl_worker == nullptr || tl_worker->owner != this) {
    const std::lock_guard<std::mutex> lock(mu_);
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->owner = this;
    tl_worker = workers_.back().get();
  }
  return *tl_worker;
}

crmd::analysis::InstanceGen RepTracker::decorate(
    crmd::analysis::InstanceGen inner) {
  return [this, inner = std::move(inner)](crmd::util::Rng& rng) {
    Worker& w = worker();
    const std::int64_t t0 = now_ns();
    w.close_rep(t0);
    w.rep = Span{log_.next_id(), 0, log_.next_run(), "rep", t0, 0};
    w.rep_open = true;
    crmd::workload::Instance instance = inner(rng);
    const std::int64_t t1 = now_ns();
    ++w.totals.reps;
    w.totals.jobs += static_cast<std::int64_t>(instance.size());
    w.totals.gen_ns += t1 - t0;
    log_.add(Span{log_.next_id(), w.rep.id, w.rep.run, "generate", t0, t1});
    w.construct =
        Span{log_.next_id(), w.rep.id, w.rep.run, "construct", t1, 0};
    w.construct_open = true;
    return instance;
  };
}

void RepTracker::note_activation(std::int64_t t) noexcept {
  Worker* w = tl_worker;
  if (w == nullptr || !w->construct_open) {
    return;
  }
  w->construct_open = false;
  w->construct.t1 = t;
  w->totals.construct_ns += w->construct.ns();
  ++w->totals.constructs;
  try {
    w->owner->log_.add(w->construct);
  } catch (...) {
    // Out of memory while logging a span: the span is lost, the run is not.
  }
}

void RepTracker::close_all(std::int64_t t_end) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& w : workers_) {
    w->close_rep(t_end);
  }
}

RepTracker::Totals RepTracker::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Totals sum;
  for (const auto& w : workers_) {
    sum.reps += w->totals.reps;
    sum.jobs += w->totals.jobs;
    sum.gen_ns += w->totals.gen_ns;
    sum.construct_ns += w->totals.construct_ns;
    sum.constructs += w->totals.constructs;
  }
  return sum;
}

std::optional<crmd::workload::JobSpec> TimedArrivals::next(
    crmd::util::Rng& rng) {
  const std::int64_t t0 = ticks();
  auto spec = inner_->next(rng);
  stats_->sampled_ticks += ticks() - t0;
  ++stats_->sampled;
  ++stats_->calls;
  return spec;
}

void TimedSink::on_event(const crmd::obs::TraceEvent& event) {
  const std::int64_t ordinal = stats_.calls++;
  if (ordinal % kSamplePeriod == kSamplePeriod / 2) {
    const std::int64_t t0 = ticks();
    stats_.empty_ticks += ticks() - t0;
    ++stats_.empty;
  }
  if (ordinal % kSamplePeriod == 0) {
    const std::int64_t t0 = ticks();
    inner_->on_event(event);
    stats_.sampled_ticks += ticks() - t0;
    ++stats_.sampled;
    return;
  }
  inner_->on_event(event);
}

}  // namespace perfbench
