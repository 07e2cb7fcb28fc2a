// Equivalence of the strength-reduced per-job-slot arithmetic with the
// formulas it replaces (DESIGN.md §6e, hot-path rules). Each test steps the
// production code and a direct, division- or libm-based restatement of the
// rule side by side and requires exact agreement at every step:
//
//  - Tracker: window-boundary resets (t / 2^cls > prev / 2^cls), the
//    active class and every class view, over random (min_class, own_class)
//    pairs and random increasing slot sequences whose gaps (1 to 3·2^own)
//    model clock skew and crash stalls;
//  - EstimationState: the phase (steps / phase_len + 1), the transmission
//    probability 1/2^phase, completion and the estimate, for levels 1-20;
//  - NOCD: the declared probability min(2^-k, max_tx_prob) plus the robust
//    aging floor, across every exponent change;
//  - PUNCTUAL: the declared anarchy and election probabilities against the
//    Params functions of the window in force, before and after a recheck
//    trim (the kWindowTrim trace events give the trimmed window).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/aligned/estimation.hpp"
#include "core/aligned/tracker.hpp"
#include "core/nocd/protocol.hpp"
#include "core/params.hpp"
#include "core/punctual/protocol.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace crmd::core {
namespace {

sim::SlotOutcome draw_outcome(util::Rng& rng, double p_success,
                              double p_noise) {
  const double u = rng.next_double();
  if (u < p_success) {
    return sim::SlotOutcome::kSuccess;
  }
  return u < p_success + p_noise ? sim::SlotOutcome::kNoise
                                 : sim::SlotOutcome::kSilence;
}

// ---------------------------------------------------------------------------
// Tracker

/// The §3 pecking-order rules restated with divisions: a class resets when
/// t / 2^cls moves past prev / 2^cls, and its estimation phase is
/// steps / (λ·cls) + 1.
class ReferenceTracker {
 public:
  struct Class {
    std::int64_t steps = 0;  // estimation steps observed
    std::vector<std::int64_t> successes;
    bool estimating = true;
    std::int64_t estimate = -1;
    std::int64_t broadcast_total = 0;
    std::int64_t broadcast_step = 0;
    bool complete = false;
  };

  ReferenceTracker(const Params& params, int min_class, int own_class)
      : params_(params),
        min_class_(min_class),
        classes_(static_cast<std::size_t>(own_class - min_class) + 1) {}

  void begin_slot(Slot t) {
    for (int cls = min_class_; cls < end_class(); ++cls) {
      const Slot w = Slot{1} << cls;
      if (!started_ || t / w > prev_ / w) {
        Class fresh;
        fresh.successes.assign(static_cast<std::size_t>(cls), 0);
        state(cls) = fresh;
      }
    }
    started_ = true;
    prev_ = t;
    active_ = -1;
    for (int cls = min_class_; cls < end_class(); ++cls) {
      if (!at(cls).complete) {
        active_ = cls;
        break;
      }
    }
  }

  void end_slot(sim::SlotOutcome outcome) {
    if (active_ == -1) {
      return;
    }
    const int cls = active_;
    Class& c = state(cls);
    if (c.estimating) {
      const std::int64_t len = phase_len(cls);
      if (outcome == sim::SlotOutcome::kSuccess) {
        ++c.successes[static_cast<std::size_t>(c.steps / len)];
      }
      ++c.steps;
      if (c.steps >= len * cls) {
        c.estimating = false;
        c.estimate = reference_estimate(c.successes);
        c.broadcast_total = params_.broadcast_steps(cls, c.estimate);
        c.complete = c.broadcast_total == 0;
      }
      return;
    }
    ++c.broadcast_step;
    c.complete = c.broadcast_step >= c.broadcast_total;
  }

  [[nodiscard]] int active_class() const { return active_; }
  [[nodiscard]] const Class& at(int cls) const {
    return classes_[static_cast<std::size_t>(cls - min_class_)];
  }
  [[nodiscard]] std::int64_t phase_len(int cls) const {
    return static_cast<std::int64_t>(params_.lambda) * cls;
  }

  /// τ·2^j for the first phase j with the most successes; 0 when none.
  [[nodiscard]] std::int64_t reference_estimate(
      const std::vector<std::int64_t>& successes) const {
    std::int64_t best = 0;
    int best_phase = 0;
    for (std::size_t j = 0; j < successes.size(); ++j) {
      if (successes[j] > best) {
        best = successes[j];
        best_phase = static_cast<int>(j) + 1;
      }
    }
    return best_phase == 0 ? 0 : params_.tau * (std::int64_t{1} << best_phase);
  }

 private:
  [[nodiscard]] int end_class() const {
    return min_class_ + static_cast<int>(classes_.size());
  }
  Class& state(int cls) {
    return classes_[static_cast<std::size_t>(cls - min_class_)];
  }

  Params params_;
  int min_class_;
  std::vector<Class> classes_;
  bool started_ = false;
  Slot prev_ = 0;
  int active_ = -1;
};

TEST(HotPathEquivalence, TrackerMatchesDivisionReference) {
  util::Rng rng(0x545241434BULL);
  std::int64_t stalls = 0;
  std::int64_t broadcast_views = 0;
  for (int c = 0; c < 300; ++c) {
    Params params;
    params.lambda = 1 + static_cast<int>(rng.below(2));
    params.tau = std::int64_t{1} << rng.below(3);
    const int own = 1 + static_cast<int>(rng.below(9));
    const int lowest =
        1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(own)));
    const double p_success = 0.05 + 0.5 * rng.next_double();
    const double p_noise = 0.3 * rng.next_double();
    aligned::Tracker tracker(params, lowest, own);
    ReferenceTracker ref(params, lowest, own);
    const Slot window = Slot{1} << own;
    // Half the cases start at the owning job's window start (fault-free),
    // half anywhere (a skewed first perceived slot).
    Slot t = static_cast<Slot>(rng.below(std::uint64_t{1} << 20));
    if (rng.below(2) == 0) {
      t = window * static_cast<Slot>(rng.below(64));
    }
    for (int i = 0; i < 400; ++i) {
      tracker.begin_slot(t);
      ref.begin_slot(t);
      ASSERT_EQ(tracker.active_class(), ref.active_class())
          << "case " << c << " slot " << t;
      for (int cls = lowest; cls <= own; ++cls) {
        const aligned::Tracker::ClassView v = tracker.view(cls);
        const ReferenceTracker::Class& r = ref.at(cls);
        ASSERT_EQ(v.estimating, r.estimating) << "case " << c << " " << cls;
        ASSERT_EQ(v.estimate, r.estimate) << "case " << c << " " << cls;
        ASSERT_EQ(v.broadcast_step, r.broadcast_step);
        ASSERT_EQ(v.complete, r.complete);
        if (r.estimating) {
          ASSERT_NE(v.estimation, nullptr);
          ASSERT_EQ(v.broadcast, nullptr);
          const std::int64_t phase = r.steps / ref.phase_len(cls) + 1;
          ASSERT_EQ(v.estimation->steps_taken(), r.steps);
          ASSERT_EQ(v.estimation->current_phase(), phase);
          ASSERT_EQ(v.estimation->tx_probability(),
                    std::ldexp(1.0, -static_cast<int>(phase)));
        } else {
          ASSERT_EQ(v.estimation, nullptr);
          ASSERT_NE(v.broadcast, nullptr);
          ASSERT_EQ(v.broadcast->total_steps(), r.broadcast_total);
          ++broadcast_views;
        }
      }
      const sim::SlotOutcome outcome = draw_outcome(rng, p_success, p_noise);
      tracker.end_slot(outcome);
      ref.end_slot(outcome);
      // Mostly consecutive slots; a skew slips one slot ahead, a stall
      // skips up to three windows of the owning class.
      const std::uint64_t kind = rng.below(10);
      if (kind < 8) {
        t += 1;
      } else if (kind == 8) {
        t += 2;
      } else {
        const auto span = static_cast<std::uint64_t>(3 * window);
        t += 1 + static_cast<Slot>(rng.below(span));
        ++stalls;
      }
    }
  }
  EXPECT_GT(stalls, 0);
  EXPECT_GT(broadcast_views, 0) << "no class ever reached its broadcast";
}

// ---------------------------------------------------------------------------
// EstimationState

TEST(HotPathEquivalence, EstimationMatchesDivisionReference) {
  util::Rng rng(0x455354494DULL);
  for (const int lambda : {1, 2, 3, 7}) {
    for (int level = 1; level <= 20; ++level) {
      Params params;
      params.lambda = lambda;
      params.tau = 8;
      const double p_success = 0.1 + 0.6 * rng.next_double();
      aligned::EstimationState est(params, level);
      const std::int64_t len = static_cast<std::int64_t>(lambda) * level;
      std::vector<std::int64_t> successes(static_cast<std::size_t>(level), 0);
      for (std::int64_t steps = 0;; ++steps) {
        ASSERT_EQ(est.steps_taken(), steps);
        ASSERT_EQ(est.complete(), steps >= len * level)
            << "lambda " << lambda << " level " << level << " step " << steps;
        if (est.complete()) {
          break;
        }
        const std::int64_t phase = steps / len + 1;
        ASSERT_EQ(est.current_phase(), phase);
        ASSERT_EQ(est.tx_probability(),
                  std::ldexp(1.0, -static_cast<int>(phase)));
        const sim::SlotOutcome outcome = draw_outcome(rng, p_success, 0.2);
        if (outcome == sim::SlotOutcome::kSuccess) {
          ++successes[static_cast<std::size_t>(phase - 1)];
        }
        est.record(outcome);
      }
      ReferenceTracker ref(params, level, level);
      EXPECT_EQ(est.estimate(), ref.reference_estimate(successes));
      for (int phase = 1; phase <= level; ++phase) {
        EXPECT_EQ(est.phase_successes(phase),
                  successes[static_cast<std::size_t>(phase - 1)]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NOCD

/// min(2^-k, max_tx_prob), raised by the robust variant's endgame floor
/// (ratio-capped at 4x the base) once less than one ladder of laxity is
/// left.
double reference_nocd_prob(const Params& params,
                           const nocd::NocdProtocol& proto, Slot remaining) {
  const double base =
      std::min(std::exp2(-proto.density_exponent()), params.max_tx_prob);
  double p = base;
  if (proto.robust() &&
      remaining <= params.nocd_epoch_len * (proto.max_exponent() + 1)) {
    p = std::max(p, std::min(params.nocd_floor_tx_prob(remaining), 4 * base));
  }
  return p;
}

TEST(HotPathEquivalence, NocdDeclaredProbMatchesExp2Reference) {
  util::Rng rng(0x4E4F4344ULL);
  std::int64_t changes = 0;
  std::int64_t capped = 0;
  for (int c = 0; c < 200; ++c) {
    Params params;
    params.max_tx_prob = 0.5 / static_cast<double>(1 << rng.below(8));
    params.nocd_epoch_len = 1 + static_cast<std::int64_t>(rng.below(8));
    const bool robust = rng.below(2) == 0;
    nocd::NocdProtocol proto(params, robust, util::Rng(rng.next_u64()));
    sim::JobInfo info;
    info.id = 0;
    info.release = static_cast<Slot>(rng.below(1000));
    info.deadline = info.release + 8 + static_cast<Slot>(rng.below(2000));
    info.caps.listener_success_visible = rng.below(3) != 0;
    proto.on_activate(info);
    const double p_success = 0.4 * rng.next_double();
    int prev_k = proto.density_exponent();
    for (Slot t = 0; t < info.window(); ++t) {
      const sim::SlotView view{t, info.release + t};
      const sim::SlotAction action = proto.on_slot(view);
      ASSERT_EQ(action.declared_prob,
                reference_nocd_prob(params, proto, info.window() - t))
          << "case " << c << " slot " << t;
      if (std::exp2(-proto.density_exponent()) > params.max_tx_prob) {
        ++capped;
      }
      sim::SlotFeedback fb;  // a sleeper hears silence
      if (action.transmit) {
        fb.outcome = draw_outcome(rng, 0.1, 0.9);
      } else if (!action.sleep) {
        fb.outcome = draw_outcome(rng, p_success, 0.3);
      }
      proto.on_feedback(view, fb);
      if (proto.done()) {
        break;
      }
      changes += proto.density_exponent() != prev_k ? 1 : 0;
      prev_k = proto.density_exponent();
    }
  }
  EXPECT_GT(changes, 100) << "the exponent barely moved";
  EXPECT_GT(capped, 0) << "max_tx_prob never bound";
}

// ---------------------------------------------------------------------------
// PUNCTUAL

using Stage = punctual::PunctualProtocol::Stage;

/// One on_slot of a PUNCTUAL job in a stage whose probability derives from
/// its window.
struct Probe {
  JobId id = kNoJob;
  Slot slot = 0;
  Stage stage = Stage::kSyncListen;
  double declared = 0.0;
  Slot effective_window = 0;
};

/// Forwards to a PunctualProtocol and records the anarchy-slot,
/// election-slot and desperate declarations.
class ProbedPunctual final : public sim::Protocol {
 public:
  ProbedPunctual(const Params& params, util::Rng rng, std::vector<Probe>* out)
      : inner_(params, rng), out_(out) {}

  void on_activate(const sim::JobInfo& info) override {
    id_ = info.id;
    inner_.set_tracer(obs_);
    inner_.on_activate(info);
  }

  sim::SlotAction on_slot(const sim::SlotView& view) override {
    const Stage stage = inner_.stage();
    bool probed = stage == Stage::kDesperate;
    if (stage == Stage::kAnarchist) {
      probed = slot_type(view) == punctual::SlotType::kAnarchy;
    } else if (stage == Stage::kSlingshot) {
      probed = slot_type(view) == punctual::SlotType::kLeaderElection;
    }
    const sim::SlotAction action = inner_.on_slot(view);
    if (probed) {
      const double p = action.declared_prob;
      const Slot w = inner_.effective_window();
      out_->push_back(Probe{id_, view.global_slot, stage, p, w});
    }
    return action;
  }

  void on_feedback(const sim::SlotView& view,
                   const sim::SlotFeedback& fb) override {
    inner_.on_feedback(view, fb);
  }

  [[nodiscard]] bool done() const override { return inner_.done(); }

 private:
  [[nodiscard]] punctual::SlotType slot_type(const sim::SlotView& view) const {
    return inner_.clock().type(view.since_release);
  }

  punctual::PunctualProtocol inner_;
  std::vector<Probe>* out_;
  JobId id_ = kNoJob;
};

TEST(HotPathEquivalence, PunctualDeclaredProbsFollowWindowInForce) {
  std::int64_t anarchy = 0;
  std::int64_t election = 0;
  std::int64_t desperate = 0;
  std::int64_t after_trim = 0;
  std::int64_t trims = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    // Leaders get elected at these window sizes (claim scale raised, short
    // pullback), so late jobs meet leaders at their recheck and trim; with
    // heavy λ many trimmed follow runs truncate into the anarchist stage.
    Params params;
    params.lambda = 4;
    params.tau = 4;
    params.min_class = 6;
    params.pullback_prob_log_exp = 0.0;
    params.pullback_prob_scale = 256.0;
    params.pullback_window_frac = 0.1;
    params.anarchist_fallback_on_truncation = true;
    workload::GeneralConfig gen;
    gen.min_window = 1 << 5;  // some below punctual_min_window: desperate
    gen.max_window = 1 << 12;
    gen.gamma = 1.0 / 8;
    gen.fill = 0.5;
    gen.horizon = 1 << 14;
    util::Rng rng(seed);
    const workload::Instance instance = workload::gen_general(gen, rng);

    std::vector<Probe> probes;
    const sim::ProtocolFactory make = [&](const sim::JobInfo&, util::Rng r) {
      return std::make_unique<ProbedPunctual>(params, r, &probes);
    };
    auto collect = std::make_shared<obs::CollectSink>();
    obs::Tracer tracer;
    tracer.add_sink(collect);
    sim::SimConfig config;
    config.seed = seed;
    config.tracer = &tracer;
    (void)sim::run(instance, make, config);
    tracer.close();

    // The window in force: the job's own until its kWindowTrim event, the
    // trimmed one on every later slot.
    std::map<JobId, std::pair<Slot, Slot>> trim;  // job -> (slot, window)
    for (const obs::TraceEvent& e : collect->events()) {
      if (e.kind == obs::EventKind::kWindowTrim) {
        ASSERT_EQ(trim.count(e.job), 0U) << "a job trimmed twice";
        trim[e.job] = {e.slot, e.a};
        ++trims;
      }
    }
    for (const Probe& probe : probes) {
      Slot window = instance.jobs[probe.id].window();
      const auto it = trim.find(probe.id);
      const bool trimmed = it != trim.end() && it->second.first < probe.slot;
      if (trimmed) {
        window = it->second.second;
        ++after_trim;
      }
      ASSERT_EQ(probe.effective_window, window) << "job " << probe.id;
      double expected = params.anarchist_tx_prob(window);
      if (probe.stage == Stage::kSlingshot) {
        expected = params.pullback_tx_prob(window);
      }
      ASSERT_EQ(probe.declared, expected)
          << "seed " << seed << " job " << probe.id << " slot " << probe.slot;
      anarchy += probe.stage == Stage::kAnarchist ? 1 : 0;
      election += probe.stage == Stage::kSlingshot ? 1 : 0;
      desperate += probe.stage == Stage::kDesperate ? 1 : 0;
    }
  }
  EXPECT_GT(anarchy, 0);
  EXPECT_GT(election, 0);
  EXPECT_GT(desperate, 0);
  EXPECT_GT(trims, 0);
  EXPECT_GT(after_trim, 0) << "no anarchist slot after a trim was checked";
}

}  // namespace
}  // namespace crmd::core
