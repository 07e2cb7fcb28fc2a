#include "sim/channel.hpp"

#include <ostream>
#include <stdexcept>

namespace crmd::sim {

const char* to_string(SlotOutcome outcome) noexcept {
  switch (outcome) {
    case SlotOutcome::kSilence:
      return "silence";
    case SlotOutcome::kSuccess:
      return "success";
    case SlotOutcome::kNoise:
      return "noise";
  }
  return "unknown";
}

SlotFeedback resolve_slot(std::span<const Transmission> transmissions) {
  SlotFeedback fb;
  if (transmissions.empty()) {
    fb.outcome = SlotOutcome::kSilence;
  } else if (transmissions.size() == 1) {
    fb.outcome = SlotOutcome::kSuccess;
    fb.message = transmissions.front().message;
  } else {
    fb.outcome = SlotOutcome::kNoise;
  }
  return fb;
}

const char* to_string(FeedbackKind kind) noexcept {
  switch (kind) {
    case FeedbackKind::kTernary:
      return "ternary";
    case FeedbackKind::kBinaryAck:
      return "binary_ack";
    case FeedbackKind::kCollisionAsSilence:
      return "collision_as_silence";
    case FeedbackKind::kNoisy:
      return "noisy";
    case FeedbackKind::kCapture:
      return "capture";
    case FeedbackKind::kUnawareNoCd:
      return "unaware_no_cd";
  }
  return "unknown";
}

ChannelCaps FeedbackModel::caps() const noexcept {
  ChannelCaps c;
  switch (kind) {
    case FeedbackKind::kTernary:
    case FeedbackKind::kUnawareNoCd:
      // The ablation hides its loss of collision detection on purpose: the
      // protocols must run as if on the paper's channel.
      break;
    case FeedbackKind::kBinaryAck:
      c.collision_detection = false;
      c.listener_success_visible = false;
      break;
    case FeedbackKind::kCollisionAsSilence:
      c.collision_detection = false;
      c.transmitter_ack = false;
      break;
    case FeedbackKind::kNoisy:
      c.reliable = false;
      break;
    case FeedbackKind::kCapture:
      // alpha == 0 advertises exactly ternary's caps: the channel *is* the
      // ternary channel then, and protocols must not be nudged into a
      // different mode for a physically identical radio.
      c.capture = alpha > 0.0;
      break;
  }
  return c;
}

std::string FeedbackModel::spec() const {
  std::string s = to_string(kind);
  if (kind == FeedbackKind::kNoisy) {
    s += ':' + std::to_string(eps);
  } else if (kind == FeedbackKind::kCapture) {
    s += ':' + std::to_string(alpha);
  }
  return s;
}

void FeedbackModel::validate() const {
  if (kind == FeedbackKind::kNoisy) {
    if (!(eps >= 0.0 && eps <= 1.0)) {
      throw std::invalid_argument(
          "FeedbackModel: noisy eps must be in [0, 1], got " +
          std::to_string(eps));
    }
  } else if (eps != 0.0) {
    throw std::invalid_argument(
        "FeedbackModel: eps is meaningful only for the noisy kind");
  }
  if (kind == FeedbackKind::kCapture) {
    if (!(alpha >= 0.0 && alpha <= 1.0)) {
      throw std::invalid_argument(
          "FeedbackModel: capture alpha must be in [0, 1], got " +
          std::to_string(alpha));
    }
  } else if (alpha != 0.0) {
    throw std::invalid_argument(
        "FeedbackModel: alpha is meaningful only for the capture kind");
  }
}

namespace {

std::optional<FeedbackModel> parse_model_parts(const std::string& name,
                                               const std::string& param) {
  if (name == "ternary" && param.empty()) {
    return FeedbackModel::ternary();
  }
  if (name == "binary_ack" && param.empty()) {
    return FeedbackModel::binary_ack();
  }
  if (name == "collision_as_silence" && param.empty()) {
    return FeedbackModel::collision_as_silence();
  }
  if (name == "unaware_no_cd" && param.empty()) {
    return FeedbackModel::unaware_no_cd();
  }
  if (name == "noisy" || name == "capture") {
    // Both parameterized kinds share the strict numeric path: the full
    // param must parse as a double in [0, 1] ("noisy:junk", "capture:1.5",
    // "capture:0.5:extra" all reject).
    double value = name == "noisy" ? 0.05 : 0.5;
    if (!param.empty()) {
      try {
        std::size_t used = 0;
        value = std::stod(param, &used);
        if (used != param.size()) {
          return std::nullopt;
        }
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
    if (!(value >= 0.0 && value <= 1.0)) {
      return std::nullopt;
    }
    return name == "noisy" ? FeedbackModel::noisy(value)
                           : FeedbackModel::capture(value);
  }
  return std::nullopt;
}

}  // namespace

std::optional<FeedbackModel> parse_feedback_model(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  if (colon != std::string::npos && colon + 1 == spec.size()) {
    return std::nullopt;  // trailing colon with no parameter
  }
  const std::string param =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  return parse_model_parts(name, param);
}

std::string feedback_usage() {
  return "expected ternary | binary_ack | collision_as_silence | "
         "noisy[:eps] | capture[:alpha] | unaware_no_cd with eps, alpha in "
         "[0, 1]";
}

std::optional<FeedbackModel> parse_feedback_spec(const std::string& spec,
                                                 std::ostream& diag) {
  auto model = parse_feedback_model(spec);
  if (!model) {
    diag << "error: bad --feedback spec '" << spec << "': "
         << feedback_usage() << '\n';
  }
  return model;
}

std::optional<int> parse_collision_cost(const std::string& spec,
                                        std::ostream& diag) {
  int cost = 0;
  bool ok = false;
  try {
    std::size_t used = 0;
    cost = std::stoi(spec, &used);
    ok = used == spec.size() && cost >= 1;
  } catch (const std::exception&) {
  }
  if (!ok) {
    diag << "error: bad --collision-cost '" << spec
         << "': expected an integer >= 1\n";
    return std::nullopt;
  }
  return cost;
}

SlotFeedback degrade_feedback(const SlotFeedback& truth) noexcept {
  SlotFeedback degraded;
  switch (truth.outcome) {
    case SlotOutcome::kSuccess:
      // The delivery is garbled; no content is ever fabricated, so a
      // degraded success reads as noise.
      degraded.outcome = SlotOutcome::kNoise;
      break;
    case SlotOutcome::kNoise:
      degraded.outcome = SlotOutcome::kSilence;
      break;
    case SlotOutcome::kSilence:
      degraded.outcome = SlotOutcome::kNoise;
      break;
  }
  return degraded;
}

}  // namespace crmd::sim
