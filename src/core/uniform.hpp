#pragma once

#include <array>
#include <cstdint>

#include "core/params.hpp"
#include "sim/protocol.hpp"

/// \file uniform.hpp
/// UNIFORM (§2): the natural algorithm — each job transmits its data
/// message in Θ(1) uniformly random slots of its window (without
/// replacement) and does nothing else.
///
/// The paper proves a dichotomy about it: on γ-slack feasible instances
/// with γ < 1/6 a constant fraction of all messages succeed w.h.p. in n
/// (Lemma 4), yet UNIFORM is unfair — instances exist where individual
/// jobs succeed with probability only O(1/n^Θ(1)) (Lemma 5), and
/// ironically the small-window (urgent) jobs are the ones that starve.

namespace crmd::core {

/// Per-job UNIFORM protocol. `attempts` copies of the data message are
/// scheduled in distinct uniformly random slots of the window (fewer when
/// the window is smaller than the attempt count). The declared per-slot
/// transmission probability is attempts/window for contention accounting.
///
/// Layout: a batch run holds one object per job in its arena, so the
/// object keeps only what its per-slot calls read — the attempt offsets
/// inline (no per-job allocation) and the declared probability computed
/// once at activation — and stays within two cache lines.
class UniformProtocol final : public sim::Protocol {
 public:
  UniformProtocol(const Params& params, util::Rng rng);

  void on_activate(const sim::JobInfo& info) override;
  sim::SlotAction on_slot(const sim::SlotView& view) override;
  void on_feedback(const sim::SlotView& view,
                   const sim::SlotFeedback& fb) override;
  [[nodiscard]] bool done() const override;
  /// Dormant until the next scheduled attempt offset: the attempt list is
  /// drawn once at activation, feedback is ignored unless this job
  /// transmitted, and the declared probability attempts/window is constant.
  [[nodiscard]] sim::DormantSpan dormant_span(
      const sim::SlotView& view) const override;

 private:
  util::Rng rng_;
  /// attempts/window, fixed at activation.
  double prob_ = 0.0;
  /// Chosen transmit offsets (since release), sorted ascending; the first
  /// `count_` entries are used.
  std::array<Slot, Params::kMaxUniformAttempts> attempts_{};
  JobId id_ = kNoJob;
  /// Params::uniform_attempts, validated to fit `attempts_`.
  std::uint8_t want_;
  std::uint8_t count_ = 0;
  std::uint8_t next_attempt_ = 0;
  bool transmitted_this_slot_ = false;
  bool succeeded_ = false;
};

/// Factory adapter for the simulator.
[[nodiscard]] sim::ProtocolFactory make_uniform_factory(Params params);

}  // namespace crmd::core
