#include "sim/message.hpp"

namespace crmd::sim {

const char* to_string(MessageKind kind) noexcept {
  switch (kind) {
    case MessageKind::kData:
      return "data";
    case MessageKind::kControl:
      return "control";
    case MessageKind::kStart:
      return "start";
    case MessageKind::kLeaderClaim:
      return "leader-claim";
    case MessageKind::kTimekeeper:
      return "timekeeper";
  }
  return "unknown";
}

}  // namespace crmd::sim
