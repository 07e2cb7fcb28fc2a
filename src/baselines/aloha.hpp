#pragma once

#include "sim/protocol.hpp"

/// \file aloha.hpp
/// Slotted ALOHA: transmit with a fixed probability in every slot until
/// success. The simplest memoryless baseline — useful as a contention
/// floor in the comparison experiments and in the Lemma 2 bound
/// measurements (fixed per-job probabilities give exactly controllable
/// slot contention).

namespace crmd::baselines {

/// Per-job slotted-ALOHA with fixed transmission probability `p`.
class AlohaProtocol final : public sim::Protocol {
 public:
  /// The window-scaled rate: p = min(1/2, scale / window), set at
  /// activation.
  struct PerWindow {
    double scale = 0.0;
  };

  AlohaProtocol(double p, util::Rng rng);
  AlohaProtocol(PerWindow rate, util::Rng rng);

  void on_activate(const sim::JobInfo& info) override;
  sim::SlotAction on_slot(const sim::SlotView& view) override;
  void on_feedback(const sim::SlotView& view,
                   const sim::SlotFeedback& fb) override;
  [[nodiscard]] bool done() const override;

 private:
  double p_ = 0.0;
  /// PerWindow::scale, or 0 when p_ is fixed.
  double window_scale_ = 0.0;
  util::Rng rng_;
  sim::JobInfo info_;
  bool transmitted_ = false;
  bool succeeded_ = false;
};

/// Factory with fixed p for every job.
[[nodiscard]] sim::ProtocolFactory make_aloha_factory(double p);

/// Factory where each job transmits with probability scale/window — the
/// "fair share" tuning (expected one transmission per `1/scale` windows of
/// contention budget).
[[nodiscard]] sim::ProtocolFactory make_aloha_window_factory(double scale);

}  // namespace crmd::baselines
