// Pins the traced event streams of the paper's protocols.
//
// The kGolden* digests hash results and metrics, never the tracer's
// events, so an edit that moved, dropped or reordered a protocol's
// CRMD_TRACE emission (class-active, estimate, subphase, round-sync,
// desync evidence, stage) would pass every other pin. Each test here runs
// ALIGNED on gen_aligned and PUNCTUAL on gen_general three ways — ternary
// feedback under a reactive jammer, collision_as_silence (the protocols'
// blind fallbacks), and a fault plan of lost and corrupted feedback and
// crashes — and hashes every field of every traced event in emission
// order: kind, slot, job, a, b, x and the label text.
//
// If a change is meant to alter a trace, run this suite, copy the
// "got 0x..." values from the failure output into the EXPECT lines and say
// why in the commit message.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "core/params.hpp"
#include "core/registry.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "report_digest.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workload/instance.hpp"

namespace crmd::tests {
namespace {

/// Folds every field of each event it hears into one order-sensitive
/// digest, and counts the events of each kind.
class DigestSink final : public obs::EventSink {
 public:
  void on_event(const obs::TraceEvent& e) override {
    h_ = mix(h_, static_cast<std::uint64_t>(e.kind));
    h_ = mix(h_, static_cast<std::uint64_t>(e.slot));
    h_ = mix(h_, static_cast<std::uint64_t>(e.job));
    h_ = mix(h_, static_cast<std::uint64_t>(e.a));
    h_ = mix(h_, static_cast<std::uint64_t>(e.b));
    h_ = mix_double(h_, e.x);
    if (e.label == nullptr) {
      h_ = mix(h_, 0);
    } else {
      for (const char c : std::string_view(e.label)) {
        h_ = mix(h_,
                 static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
      }
      h_ = mix(h_, 1);
    }
    ++count_[static_cast<std::size_t>(e.kind)];
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return h_; }
  [[nodiscard]] std::int64_t count(obs::EventKind kind) const noexcept {
    return count_[static_cast<std::size_t>(kind)];
  }

 private:
  std::uint64_t h_ = 0;
  std::array<std::int64_t, obs::kEventKindCount> count_{};
};

enum class Channel { kJammedTernary, kCollisionAsSilence, kFaulted };

/// The digest and kind counts of one traced run.
struct Traced {
  std::uint64_t digest = 0;
  std::shared_ptr<DigestSink> sink;
};

core::Params small_params() {
  core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = 8;
  return params;
}

Traced run_traced(const char* protocol, const core::Params& params,
                  workload::Instance instance, Channel channel,
                  std::uint64_t seed) {
  sim::SimConfig config;
  config.seed = seed;
  std::unique_ptr<sim::Jammer> jammer;
  switch (channel) {
    case Channel::kJammedTernary:
      jammer = sim::make_reactive_jammer(0.25);
      break;
    case Channel::kCollisionAsSilence:
      config.feedback = sim::FeedbackModel::collision_as_silence();
      break;
    case Channel::kFaulted:
      config.faults.feedback_loss_rate = 0.02;
      config.faults.feedback_corrupt_rate = 0.02;
      config.faults.crash_rate = 0.001;
      config.faults.stall_min = 4;
      config.faults.stall_max = 16;
      break;
  }
  obs::Tracer tracer;
  Traced out;
  out.sink = std::make_shared<DigestSink>();
  tracer.add_sink(out.sink);
  config.tracer = &tracer;
  sim::Simulation simulation(std::move(instance),
                             *core::make_protocol(protocol, params), config,
                             std::move(jammer));
  const sim::SimResult result = simulation.finish();
  tracer.close();
  EXPECT_EQ(tracer.dropped(), 0U);
  EXPECT_FALSE(result.jobs.empty());
  out.digest = out.sink->digest();
  return out;
}

Traced run_aligned(Channel channel) {
  workload::AlignedConfig aligned;
  aligned.min_class = 8;
  aligned.max_class = 10;
  aligned.horizon = 1 << 12;
  aligned.fill = 0.5;
  util::Rng rng(61);
  return run_traced("aligned", small_params(),
                    workload::gen_aligned(aligned, rng), channel, 67);
}

Traced run_punctual(Channel channel) {
  workload::GeneralConfig general;
  general.min_window = 1 << 8;
  general.max_window = 1 << 10;
  general.horizon = 1 << 12;
  general.fill = 0.5;
  util::Rng rng(71);
  // Claims that fire within these windows, so leaders are elected and
  // later jobs follow them.
  core::Params params = small_params();
  params.pullback_prob_log_exp = 0.0;
  params.pullback_prob_scale = 256.0;
  return run_traced("punctual", params, workload::gen_general(general, rng),
                    channel, 73);
}

TEST(TracePin, AlignedTracesAreUnchanged) {
  using obs::EventKind;
  const Traced jammed = run_aligned(Channel::kJammedTernary);
  const Traced blind = run_aligned(Channel::kCollisionAsSilence);
  const Traced faulted = run_aligned(Channel::kFaulted);
  for (const Traced* t : {&jammed, &faulted}) {
    EXPECT_GT(t->sink->count(EventKind::kClassActive), 0);
    EXPECT_GT(t->sink->count(EventKind::kEstimate), 0);
    EXPECT_GT(t->sink->count(EventKind::kSubphase), 0);
    EXPECT_GT(t->sink->count(EventKind::kStage), 0);
  }
  EXPECT_GT(blind.sink->count(EventKind::kStage), 0);
  EXPECT_GT(faulted.sink->count(EventKind::kFault), 0);
  EXPECT_EQ(jammed.digest, 0x5ea6aff231bfc872ULL)
      << "got 0x" << std::hex << jammed.digest;
  EXPECT_EQ(blind.digest, 0xfc61e5d02f288424ULL)
      << "got 0x" << std::hex << blind.digest;
  EXPECT_EQ(faulted.digest, 0xe6410f4aa0447b5cULL)
      << "got 0x" << std::hex << faulted.digest;
}

TEST(TracePin, PunctualTracesAreUnchanged) {
  using obs::EventKind;
  const Traced jammed = run_punctual(Channel::kJammedTernary);
  const Traced blind = run_punctual(Channel::kCollisionAsSilence);
  const Traced faulted = run_punctual(Channel::kFaulted);
  for (const Traced* t : {&jammed, &faulted}) {
    EXPECT_GT(t->sink->count(EventKind::kRoundSync), 0);
    EXPECT_GT(t->sink->count(EventKind::kBecomeLeader), 0);
    EXPECT_GT(t->sink->count(EventKind::kStage), 0);
  }
  EXPECT_GT(blind.sink->count(EventKind::kStage), 0);
  EXPECT_GT(jammed.sink->count(EventKind::kWindowTrim), 0);
  EXPECT_GT(faulted.sink->count(EventKind::kDesyncEvidence), 0);
  EXPECT_EQ(jammed.digest, 0xebe0af1e340312c1ULL)
      << "got 0x" << std::hex << jammed.digest;
  EXPECT_EQ(blind.digest, 0xeabaf5f6bdffb972ULL)
      << "got 0x" << std::hex << blind.digest;
  EXPECT_EQ(faulted.digest, 0xac141cbd45f785d9ULL)
      << "got 0x" << std::hex << faulted.digest;
}

}  // namespace
}  // namespace crmd::tests
