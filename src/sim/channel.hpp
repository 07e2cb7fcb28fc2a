#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>

#include "sim/message.hpp"
#include "util/types.hpp"

/// \file channel.hpp
/// The multiple-access channel: slot resolution and pluggable feedback.
///
/// §1.1 of the paper: in each slot a player may transmit; the transmission
/// succeeds only if no other player transmits in the same slot. Listening
/// players receive ternary feedback (collision detection): the slot is
/// silent, contains one successful broadcast (whose content is delivered),
/// or is noisy.
///
/// The paper assumes that ternary feedback; the strongest nearby results
/// study strictly weaker channels (Bender–Kuszmaul "Contention Resolution
/// Without Collision Detection"; Jiang–Zheng "Robust and Optimal Contention
/// Resolution without Collision Detection"). `FeedbackModel` makes the
/// feedback semantics a first-class axis: the channel still *resolves*
/// slots identically (resolve_slot is the physics), but what each observer
/// *perceives* is a model-dependent projection of the true outcome — see
/// DESIGN.md §6f and the per-kind comments below.

namespace crmd::sim {

/// What every listener perceives in a slot.
enum class SlotOutcome : std::uint8_t {
  kSilence,  ///< nobody transmitted
  kSuccess,  ///< exactly one transmission; content delivered to listeners
  kNoise,    ///< two or more transmissions collided, or the slot was jammed
};

/// Human-readable name of an outcome.
[[nodiscard]] const char* to_string(SlotOutcome outcome) noexcept;

/// One job's transmission attempt in a slot.
struct Transmission {
  JobId job = kNoJob;
  Message message;
};

/// Per-slot feedback delivered to every live job. `message` is engaged iff
/// `outcome == kSuccess`. Jobs cannot tell noise-from-collision apart from
/// noise-from-jamming — both are kNoise (the paper's adversary "creates
/// noise").
struct SlotFeedback {
  SlotOutcome outcome = SlotOutcome::kSilence;
  std::optional<Message> message;
};

/// Resolves a slot from the set of transmissions: 0 -> silence, 1 ->
/// success carrying that message, >=2 -> noise. Pure function of the
/// transmission multiset; jamming is applied afterwards by the simulator.
[[nodiscard]] SlotFeedback resolve_slot(
    std::span<const Transmission> transmissions);

/// The feedback semantics of the channel — how the true slot outcome is
/// projected into what each observer perceives.
enum class FeedbackKind : std::uint8_t {
  /// The paper's model (§1.1): every observer receives the exact ternary
  /// outcome. The default; pinned golden digests are recorded under it.
  kTernary,
  /// ACK-only channel: a transmitter learns whether its own transmission
  /// succeeded (the true outcome: its success, or noise when it failed);
  /// listeners hear nothing at all — every listened slot reads as silence
  /// and no payload is ever delivered to a non-transmitter. The simulator
  /// still credits true successes, so "delivered" keeps its meaning.
  kBinaryAck,
  /// No collision detection (Bender–Kuszmaul, Jiang–Zheng): empty and
  /// collided slots are indistinguishable for *every* observer — noisy
  /// slots read as silence even for the jobs that transmitted into them
  /// (while transmitting you cannot listen, so a failed transmitter gets
  /// no explicit failure cue). Successes are delivered normally.
  kCollisionAsSilence,
  /// Ternary feedback over an unreliable receiver chain: once per slot,
  /// with probability `eps`, the broadcast outcome every observer hears is
  /// degraded one step (success -> noise, noise -> silence, silence ->
  /// noise — the same never-fabricate mapping as the per-listener fault
  /// layer, see degrade_feedback). Deterministic from (seed, eps); the
  /// per-listener fault injector composes on top rather than being
  /// duplicated.
  kNoisy,
  /// Capture effect (SINR-style; Biswas–Chakraborty–Young,
  /// arXiv:2408.11275): when k >= 2 stations transmit simultaneously, one
  /// seeded-deterministically-drawn winner still gets through with
  /// probability p_k(alpha) = alpha^(k-1); otherwise the slot is noise as
  /// usual. k = 1 always succeeds. Listeners and the winner perceive the
  /// captured success; the k-1 losers perceive noise (their own signal was
  /// drowned out). alpha = 0 reproduces the ternary channel bit-identically
  /// — no RNG draw is ever taken, so trajectories and digests match the
  /// pinned goldens exactly. See DESIGN.md §6i.
  kCapture,
  /// The §1.1 ablation (E17): listeners hear noisy slots as silence, while
  /// a transmitter still learns its own failure (it perceives the true
  /// outcome, ACK-style). Unlike kCollisionAsSilence the channel does not
  /// advertise the loss: caps() returns ternary's caps, so protocols run
  /// unaware, exactly as they would on the paper's channel. Measures which
  /// algorithm silently breaks without collision detection.
  kUnawareNoCd,
};

/// Human-readable name of a feedback kind ("ternary", "binary_ack", ...).
[[nodiscard]] const char* to_string(FeedbackKind kind) noexcept;

/// What a protocol may assume about the channel it runs on. Derived from
/// the FeedbackModel and handed to every protocol via JobInfo::caps, so
/// degraded-mode behavior is an *informed* choice (the radio hardware is
/// known at deployment time), never an in-band inference.
struct ChannelCaps {
  /// Noise is distinguishable from silence (collision detection). False
  /// for kBinaryAck and kCollisionAsSilence — the cue ALIGNED's
  /// decay/backon bookkeeping and PUNCTUAL's round grid rely on.
  bool collision_detection = true;
  /// Listeners receive successful broadcasts (payload delivery). False
  /// only for kBinaryAck.
  bool listener_success_visible = true;
  /// A transmitter gets an explicit own-failure cue (perceives noise when
  /// its transmission collided). False only for kCollisionAsSilence.
  bool transmitter_ack = true;
  /// Feedback is never flipped by the channel itself. False for kNoisy
  /// (per-listener fault injection is reported separately, via FaultPlan).
  bool reliable = true;
  /// Collisions can leak a captured success (kCapture with alpha > 0): a
  /// heard success no longer implies exactly one transmitter, so estimators
  /// that count collisions-vs-successes (ALIGNED's tracker, PUNCTUAL's
  /// round grid) see optimistically biased samples. Advertised so that
  /// choice is informed; false for every other kind and for alpha == 0,
  /// keeping capture:0 caps identical to ternary's.
  bool capture = false;

  friend bool operator==(const ChannelCaps&, const ChannelCaps&) = default;
};

/// A pluggable feedback model: the kind plus its parameters. Value type;
/// the simulator owns the per-slot application (see simulator.cpp).
struct FeedbackModel {
  FeedbackKind kind = FeedbackKind::kTernary;
  /// Per-slot flip probability; meaningful only for kNoisy.
  double eps = 0.0;
  /// Capture strength in [0, 1]; meaningful only for kCapture. A k-way
  /// collision leaks one winner with probability alpha^(k-1).
  double alpha = 0.0;

  [[nodiscard]] static FeedbackModel ternary() noexcept { return {}; }
  [[nodiscard]] static FeedbackModel binary_ack() noexcept {
    return {FeedbackKind::kBinaryAck, 0.0, 0.0};
  }
  [[nodiscard]] static FeedbackModel collision_as_silence() noexcept {
    return {FeedbackKind::kCollisionAsSilence, 0.0, 0.0};
  }
  [[nodiscard]] static FeedbackModel noisy(double eps) noexcept {
    return {FeedbackKind::kNoisy, eps, 0.0};
  }
  [[nodiscard]] static FeedbackModel capture(double alpha) noexcept {
    return {FeedbackKind::kCapture, 0.0, alpha};
  }
  [[nodiscard]] static FeedbackModel unaware_no_cd() noexcept {
    return {FeedbackKind::kUnawareNoCd, 0.0, 0.0};
  }

  /// The capability flags this model advertises to protocols.
  [[nodiscard]] ChannelCaps caps() const noexcept;

  /// Canonical spec string: "ternary", "noisy:0.05", "capture:0.5", ...
  [[nodiscard]] std::string spec() const;

  /// Throws std::invalid_argument when eps/alpha are outside [0, 1] or set
  /// for a kind they are not meaningful for.
  void validate() const;

  friend bool operator==(const FeedbackModel&, const FeedbackModel&) = default;
};

/// Parses "--feedback=" specs: "ternary" | "binary_ack" |
/// "collision_as_silence" | "noisy[:eps]" (eps defaults to 0.05) |
/// "capture[:alpha]" (alpha defaults to 0.5) | "unaware_no_cd".
/// Returns std::nullopt on unknown names or malformed parameters.
[[nodiscard]] std::optional<FeedbackModel> parse_feedback_model(
    const std::string& spec);

/// CLI front half of parse_feedback_model, shared by every bench harness
/// and `crmd_cli`: on failure, prints the canonical one-line diagnostic
/// ("error: bad --feedback spec '...': <usage>") to `diag` and returns
/// std::nullopt — callers exit 2. Keeps the usage path byte-identical
/// across binaries instead of each one composing its own message.
[[nodiscard]] std::optional<FeedbackModel> parse_feedback_spec(
    const std::string& spec, std::ostream& diag);

/// Parses "--collision-cost=" values: an integer c >= 1, where a perceived
/// collision freezes the channel for the next c-1 slots (c = 1 is the
/// paper's channel, bit-identical to not passing the flag). On failure
/// prints "error: bad --collision-cost ..." to `diag` and returns
/// std::nullopt — callers exit 2.
[[nodiscard]] std::optional<int> parse_collision_cost(const std::string& spec,
                                                      std::ostream& diag);

/// One-line usage hint for `--feedback=` error messages, shared by every
/// bench harness and `crmd_cli` so a malformed spec ("noisy:junk",
/// "ternary:0.5", eps outside [0,1], unknown model) always produces the
/// same diagnostic and a nonzero exit, never an uncaught exception.
[[nodiscard]] std::string feedback_usage();

/// One degradation step of the ternary outcome (success -> noise, noise ->
/// silence, silence -> noise). Never fabricates message content. Shared by
/// the kNoisy model and the fault layer's per-listener corruption so the
/// two compose instead of diverging.
[[nodiscard]] SlotFeedback degrade_feedback(const SlotFeedback& truth)
    noexcept;

}  // namespace crmd::sim
