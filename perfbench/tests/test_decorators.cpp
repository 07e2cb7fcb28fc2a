// Decorator equivalence: the per-layer run must simulate exactly what the
// plain run simulates. Checks, for every workload, that the plain,
// decorated, obs-traced and (for replication workloads) two-worker
// passes give bit-identical digests, and that the same comparison catches
// the two mistakes a forwarding decorator invites: forgetting a virtual
// (dormant_span, which silently disables fast-forward) and dropping the
// tracer hand-off. Exits non-zero on any failure.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/registry.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "tests/report_digest.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace {

using crmd::sim::Protocol;
using crmd::sim::ProtocolFactory;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    ++failures;
  }
}

/// A deliberately incomplete decorator: forwards the four required
/// virtuals but leaves dormant_span and/or the tracer hand-off out.
class Partial final : public Protocol {
 public:
  Partial(std::unique_ptr<Protocol> inner, bool dormant, bool tracer)
      : inner_(std::move(inner)), dormant_(dormant), tracer_(tracer) {}
  void on_activate(const crmd::sim::JobInfo& info) override {
    if (tracer_) {
      inner_->set_tracer(obs_);
    }
    inner_->on_activate(info);
  }
  crmd::sim::SlotAction on_slot(const crmd::sim::SlotView& v) override {
    return inner_->on_slot(v);
  }
  void on_feedback(const crmd::sim::SlotView& v,
                   const crmd::sim::SlotFeedback& fb) override {
    inner_->on_feedback(v, fb);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] crmd::sim::DormantSpan dormant_span(
      const crmd::sim::SlotView& v) const override {
    return dormant_ ? inner_->dormant_span(v) : crmd::sim::DormantSpan{};
  }

 private:
  std::unique_ptr<Protocol> inner_;
  bool dormant_;
  bool tracer_;
};

ProtocolFactory partial(const ProtocolFactory& inner, bool dormant,
                        bool tracer) {
  return [inner, dormant, tracer](const crmd::sim::JobInfo& info,
                                  crmd::util::Rng rng) {
    return std::unique_ptr<Protocol>(
        std::make_unique<Partial>(inner(info, std::move(rng)), dormant, tracer));
  };
}

/// A small fast-forwarding UNIFORM burst, traced; returns (digests of the
/// result, digest of the event stream).
std::pair<perfbench::Digests, std::uint64_t> traced_burst(
    const ProtocolFactory& factory) {
  crmd::obs::Tracer tracer;
  auto sink = std::make_shared<crmd::obs::CollectSink>();
  tracer.add_sink(sink);
  crmd::sim::SimConfig config;
  config.seed = 7;
  config.fast_forward = crmd::sim::FastForward::kOn;
  config.tracer = &tracer;
  const auto result =
      crmd::sim::run(crmd::workload::gen_batch(256, 1024), factory, config);
  tracer.close();
  using crmd::tests::mix;
  std::uint64_t events = 0;
  for (const auto& e : sink->events()) {
    for (const std::int64_t v :
         {std::int64_t{e.slot}, static_cast<std::int64_t>(e.kind),
          static_cast<std::int64_t>(e.job), std::int64_t{e.a},
          std::int64_t{e.b}}) {
      events = mix(events, static_cast<std::uint64_t>(v));
    }
    events = crmd::tests::mix_double(events, e.x);
  }
  return {perfbench::digest(result), events};
}

}  // namespace

int main() {
  for (const std::string& name : perfbench::workload_names()) {
    auto w = perfbench::make_workload(name, 3);
    expect(w->setup() > 0.0, name + ": set-up reaches the first slot");
    perfbench::LayerProbe probe;
    const auto plain = w->pass(perfbench::Mode::kPlain, nullptr);
    const auto decorated = w->pass(perfbench::Mode::kDecorated, &probe);
    const auto traced = w->pass(perfbench::Mode::kObs, &probe);
    expect(plain.failed_runs == 0, name + ": plain pass passes its checks");
    expect(decorated.digest.full == plain.digest.full,
           name + ": decorated digest equals plain");
    expect(traced.digest.full == plain.digest.full,
           name + ": obs-traced digest equals plain");
    expect(probe.dropped_events == 0, name + ": no events dropped");
    if (w->replicated()) {
      const auto parallel = w->pass(perfbench::Mode::kParallel, nullptr);
      expect(parallel.digest.full == plain.digest.full,
             name + ": two-worker digest equals plain");
    }
  }

  const ProtocolFactory uniform =
      *crmd::core::make_protocol("uniform", crmd::core::Params{});
  const auto plain = traced_burst(uniform);
  const auto timed =
      traced_burst(perfbench::decorate_factory(uniform,
                                               perfbench::Family::kUniform));
  const auto complete = traced_burst(partial(uniform, true, true));
  const auto no_dormant = traced_burst(partial(uniform, false, true));
  const auto no_tracer = traced_burst(partial(uniform, true, false));
  const auto same = [](const auto& x, const auto& y) {
    return x.first.full == y.first.full && x.second == y.second;
  };
  expect(same(timed, plain),
         "TimedProtocol: result and event stream unchanged");
  expect(same(complete, plain), "a complete hand-written decorator matches");
  expect(no_dormant.first.full != plain.first.full,
         "a decorator without dormant_span changes the full digest");

  // The pinned digest must survive an engine change that covers the same
  // slots differently (more skipping, another live-set width).
  crmd::sim::SimConfig config;
  config.fast_forward = crmd::sim::FastForward::kOn;
  auto result = crmd::sim::run(crmd::workload::gen_batch(64, 256), uniform,
                               config);
  const perfbench::Digests before = perfbench::digest(result);
  result.metrics.fast_forward_slots += 1;
  result.metrics.live_peak += 1;
  const perfbench::Digests after = perfbench::digest(result);
  expect(after.pinned == before.pinned && after.full != before.full,
         "fast_forward_slots and live_peak are in the full digest only");
  expect(no_tracer.second != plain.second,
         "a decorator without the tracer hand-off changes the event stream");

  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
