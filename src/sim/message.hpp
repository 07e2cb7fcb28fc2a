#pragma once

#include <cstdint>
#include <string>

#include "util/types.hpp"

/// \file message.hpp
/// Messages carried on the multiple-access channel.
///
/// The paper distinguishes *data messages* (the unit-length payload each job
/// must deliver inside its window) from *control messages* (everything the
/// protocols use to coordinate: estimation probes, round-start markers,
/// leader claims, and the leader's timekeeper broadcasts). A successful slot
/// delivers its message payload to every listening job.

namespace crmd::sim {

/// Discriminates the message types used by the protocols in the paper.
enum class MessageKind : std::uint8_t {
  /// The job's payload. Delivering one of these inside the window is the
  /// job's goal. PUNCTUAL leaders piggyback timekeeping fields on their
  /// final data message ("I am abdicating", §4).
  kData,
  /// Estimation probe used by ALIGNED's size-estimation protocol (§3).
  kControl,
  /// Round-start marker broadcast in the two sync slots of every PUNCTUAL
  /// round (§4). Start messages routinely collide; only the fact that the
  /// slot is busy matters.
  kStart,
  /// "I am the leader with deadline d" — sent in leader-election slots
  /// during SLINGSHOT's pullback stage (§4).
  kLeaderClaim,
  /// Leader heartbeat sent in every timekeeper slot: the global time (in
  /// rounds, leader frame) plus the leader's deadline (§4).
  kTimekeeper,
};

/// Human-readable name of a message kind (for logs and tables).
[[nodiscard]] const char* to_string(MessageKind kind) noexcept;

/// A message as it appears on the channel. Field use depends on `kind`;
/// unused fields are zero. Deadlines travel as *relative* offsets ("my
/// deadline is `deadline_in` slots from the slot you are hearing this in")
/// because the model has no global clock — two relative deadlines heard in
/// the same slot are directly comparable.
struct Message {
  MessageKind kind = MessageKind::kData;

  /// Harness bookkeeping only: which job transmitted. The model gives jobs
  /// no identifiers, and no protocol decision may depend on this field; the
  /// simulator uses it to credit data-message successes.
  JobId sender = kNoJob;

  /// kTimekeeper / abdicating kData: leader-frame global time, measured in
  /// rounds since the leader's frame origin.
  std::int64_t time = 0;

  /// kLeaderClaim / kTimekeeper / abdicating kData: slots from the current
  /// slot until the sender's deadline.
  std::int64_t deadline_in = 0;

  /// True on the leader's final message: the leadership seat is now empty.
  bool abdicating = false;
};

// The builders below run whenever a job transmits, so they are defined
// here and inline into the protocols' per-slot path.

/// Builds a plain data message.
[[nodiscard]] inline Message make_data(JobId sender) noexcept {
  Message m;
  m.kind = MessageKind::kData;
  m.sender = sender;
  return m;
}

/// Builds an estimation probe.
[[nodiscard]] inline Message make_control(JobId sender) noexcept {
  Message m;
  m.kind = MessageKind::kControl;
  m.sender = sender;
  return m;
}

/// Builds a round-start marker.
[[nodiscard]] inline Message make_start(JobId sender) noexcept {
  Message m;
  m.kind = MessageKind::kStart;
  m.sender = sender;
  return m;
}

/// Builds a leader claim with the sender's relative deadline.
[[nodiscard]] inline Message make_leader_claim(
    JobId sender, std::int64_t deadline_in) noexcept {
  Message m;
  m.kind = MessageKind::kLeaderClaim;
  m.sender = sender;
  m.deadline_in = deadline_in;
  return m;
}

/// Builds a timekeeper heartbeat.
[[nodiscard]] inline Message make_timekeeper(JobId sender, std::int64_t time,
                                             std::int64_t deadline_in,
                                             bool abdicating = false) noexcept {
  Message m;
  m.kind = MessageKind::kTimekeeper;
  m.sender = sender;
  m.time = time;
  m.deadline_in = deadline_in;
  m.abdicating = abdicating;
  return m;
}

}  // namespace crmd::sim
