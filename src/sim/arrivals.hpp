#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"
#include "workload/instance.hpp"

/// \file arrivals.hpp
/// Streaming arrival processes for open-ended workloads (DESIGN.md §6j).
///
/// A batch workload::Instance materializes every job up front — fine for
/// the paper's finite instances, hopeless for 10^8–10^9-slot stability
/// horizons with millions of cumulative jobs. An ArrivalProcess instead
/// hands the simulator one JobSpec at a time, in nondecreasing release
/// order, so the engine's memory is bounded by the *live* set (plus a
/// compaction window), never by the cumulative arrival count.
///
/// Determinism: a process draws only from the Rng the simulator passes it
/// (the dedicated "ARRV" child stream of the run seed), so a streaming run
/// is a pure function of (seed, spec) like everything else in the engine.
/// Note the streaming Poisson process is spacing-driven (exponential
/// inter-arrival gaps) and is a *different* process from the batch
/// workload::gen_poisson (which draws a total count and scatters it); the
/// two agree in rate but not per-seed.

namespace crmd::sim {

/// Largest window or dwell an arrival process accepts, and the clock at
/// which the Poisson and MMPP processes end: 2^62 slots. A release below
/// it plus a window at most it stays below 2^63, so no release + window
/// overflows and every clock-to-slot conversion is defined.
inline constexpr Slot kMaxArrivalSlots = Slot{1} << 62;

/// Produces jobs one at a time in nondecreasing release order.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Returns the next job, drawing any randomness from `rng`, or nullopt
  /// once the stream is exhausted (finite traces; infinite processes never
  /// exhaust — the simulator stops pulling at its horizon). Releases must
  /// be nondecreasing across calls; the simulator enforces this.
  [[nodiscard]] virtual std::optional<workload::JobSpec> next(
      util::Rng& rng) = 0;
};

/// Poisson arrivals: exponential inter-arrival gaps at `rate` jobs/slot,
/// each job getting a fixed window of `window` slots (at most
/// kMaxArrivalSlots). The stream ends once the clock reaches
/// kMaxArrivalSlots.
class PoissonArrivals final : public ArrivalProcess {
 public:
  PoissonArrivals(double rate, Slot window);
  [[nodiscard]] std::optional<workload::JobSpec> next(util::Rng& rng) override;

 private:
  double rate_;
  Slot window_;
  double clock_ = 0.0;  // continuous arrival time; release = floor(clock_)
};

/// Markov-modulated Poisson: alternates between a low-rate and a high-rate
/// state with geometrically distributed dwell times (mean `dwell` slots),
/// emitting Poisson arrivals at the current state's rate. The bursty
/// workload the stability literature stresses. Window and dwell are at
/// most kMaxArrivalSlots, and the stream ends once the clock reaches it.
/// The ctor throws std::invalid_argument when max(rate_lo, rate_hi) *
/// dwell < 2^-32: next() steps through the state flips one at a time, and
/// such rates need more than about 2^32 flips per arrival.
class MmppArrivals final : public ArrivalProcess {
 public:
  MmppArrivals(double rate_lo, double rate_hi, Slot window, Slot dwell);
  [[nodiscard]] std::optional<workload::JobSpec> next(util::Rng& rng) override;

 private:
  double rate_lo_;
  double rate_hi_;
  Slot window_;
  Slot dwell_;
  bool high_ = false;
  double clock_ = 0.0;
  double state_end_ = 0.0;  // continuous time the current state expires
};

/// Replays "release,deadline" CSV lines from a file (blank lines and
/// #-comments skipped). Construction throws std::runtime_error on an
/// unreadable file or malformed/decreasing rows — trace bugs should fail
/// loudly, not silently truncate an experiment.
class TraceArrivals final : public ArrivalProcess {
 public:
  explicit TraceArrivals(const std::string& path);
  [[nodiscard]] std::optional<workload::JobSpec> next(util::Rng& rng) override;

 private:
  std::vector<workload::JobSpec> jobs_;
  std::size_t next_ = 0;
};

/// Replays an in-memory job list (tests: the streaming-vs-batch
/// equivalence suite feeds the same normalized instance both ways).
class VectorArrivals final : public ArrivalProcess {
 public:
  explicit VectorArrivals(std::vector<workload::JobSpec> jobs);
  [[nodiscard]] std::optional<workload::JobSpec> next(util::Rng& rng) override;

 private:
  std::vector<workload::JobSpec> jobs_;
  std::size_t next_ = 0;
};

/// Parsed `--arrivals=SPEC` value; `make()` builds a fresh process (one per
/// run/shard, so replications and shards draw independent streams).
struct ArrivalSpec {
  enum class Kind { kPoisson, kMmpp, kTrace };
  Kind kind = Kind::kPoisson;
  double rate = 0.01;       // poisson; mmpp low-state rate
  double rate_hi = 0.0;     // mmpp high-state rate
  Slot window = 4096;       // per-job window (release + window = deadline)
  Slot dwell = 4096;        // mmpp mean state dwell (slots)
  std::string path;         // trace file

  [[nodiscard]] std::unique_ptr<ArrivalProcess> make() const;
  /// Canonical spec string (round-trips through parse_arrivals_spec).
  [[nodiscard]] std::string spec() const;
};

/// One-line usage text for --arrivals error messages.
[[nodiscard]] std::string arrivals_usage();

/// Parses "poisson:RATE[:WINDOW]", "mmpp:RLO:RHI[:WINDOW[:DWELL]]", or
/// "trace:PATH"; WINDOW and DWELL lie in [1, kMaxArrivalSlots]. Returns
/// nullopt (after printing a one-line error with
/// arrivals_usage() to `diag`) on anything malformed — CLI callers exit 2,
/// matching the --feedback pattern.
[[nodiscard]] std::optional<ArrivalSpec> parse_arrivals_spec(
    const std::string& spec, std::ostream& diag);

/// Materializes a process into a batch Instance (releases < horizon). Used
/// by crmd_cli's --arrivals path and by the streaming-equivalence tests;
/// mega-scale harnesses feed the process straight to the simulator instead.
[[nodiscard]] workload::Instance materialize_arrivals(ArrivalProcess& process,
                                                      Slot horizon,
                                                      util::Rng& rng);

}  // namespace crmd::sim
