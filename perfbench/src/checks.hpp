#pragma once

#include <cstdint>
#include <string>

#include "analysis/runner.hpp"
#include "sim/metrics.hpp"

/// \file checks.hpp
/// Result digests and the accounting identities every benchmark run must
/// satisfy.

namespace perfbench {

/// Two digests of one result.
///
/// `pinned` covers what the channel did: exactly the fields the
/// repository's golden digests hash (tests/report_digest.hpp's
/// report_digest and energy_digest), plus a stream's outcome summary. An
/// engine change that keeps the kGolden* digests keeps it, so it is the
/// value pinned per workload.
///
/// `full` adds how the engine covered the slots (fast_forward_slots,
/// live_peak). It is compared only between passes of one build, where it
/// catches a decorator that drops Protocol::dormant_span (which silently
/// turns fast-forward off without changing the channel).
struct Digests {
  std::uint64_t pinned = 0;
  std::uint64_t full = 0;

  /// Order-sensitive chaining of several results.
  void add(const Digests& next) noexcept;
};

[[nodiscard]] Digests digest(const crmd::sim::SimResult& result);
[[nodiscard]] Digests digest(const crmd::analysis::ReplicationReport& report);

/// Each check returns an empty string when every identity holds, else a
/// one-line description of the first violation.
///
/// Channel identities: silent + success + noise slots == slots_simulated,
/// slots_awake == slots_listening + slots_transmitting, and every subset
/// counter is within its superset.
[[nodiscard]] std::string check_metrics(const crmd::sim::SimMetrics& m);
/// A batch run of `jobs` jobs: the channel identities, one result per job,
/// delivered <= jobs, and the per-job live/transmit/awake slots summing to
/// the channel's live_job_slots / slots_transmitting / slots_awake.
[[nodiscard]] std::string check_batch(const crmd::sim::SimResult& result,
                                      std::int64_t jobs);
/// A streaming run: the channel identities, delivered <= jobs, and the
/// folded per-job awake slots summing to slots_awake.
[[nodiscard]] std::string check_stream(const crmd::sim::SimResult& result);
/// A replication sweep: the channel identities on the summed metrics,
/// delivered <= jobs, and the per-job awake/transmit folds summing to the
/// channel totals.
[[nodiscard]] std::string check_report(
    const crmd::analysis::ReplicationReport& report);

}  // namespace perfbench
