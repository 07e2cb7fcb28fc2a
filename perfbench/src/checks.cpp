#include "checks.hpp"

#include <cmath>
#include <sstream>

#include "tests/report_digest.hpp"

namespace perfbench {

using crmd::analysis::ReplicationReport;
using crmd::sim::SimMetrics;
using crmd::sim::SimResult;
using crmd::tests::mix;
using crmd::tests::mix_stats;

namespace {

Digests with_engine(std::uint64_t pinned, const SimMetrics& m) {
  return {pinned, mix(mix(pinned, static_cast<std::uint64_t>(
                                      m.fast_forward_slots)),
                      static_cast<std::uint64_t>(m.live_peak))};
}

}  // namespace

void Digests::add(const Digests& next) noexcept {
  pinned = mix(pinned, next.pinned);
  full = mix(full, next.full);
}

Digests digest(const ReplicationReport& report) {
  return with_engine(mix(crmd::tests::report_digest(report),
                         crmd::tests::energy_digest(report)),
                     report.channel);
}

Digests digest(const SimResult& result) {
  // The golden digests hash a replication report; a one-run report folds
  // the run exactly as run_replications would.
  ReplicationReport one;
  one.outcomes.add_run(result);
  one.channel = result.metrics;
  one.replications = 1;
  one.jobs_per_rep.add(static_cast<double>(result.jobs.size()));
  std::uint64_t h = mix(crmd::tests::report_digest(one),
                        crmd::tests::energy_digest(one));
  const auto& s = result.stream;
  h = mix(h, static_cast<std::uint64_t>(s.jobs));
  h = mix(h, static_cast<std::uint64_t>(s.delivered));
  h = mix_stats(h, s.latency);
  h = mix_stats(h, s.accesses);
  h = mix_stats(h, s.awake);
  return with_engine(h, result.metrics);
}

namespace {

std::string mismatch(const char* what, double lhs, double rhs) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": " << lhs << " != " << rhs;
  return out.str();
}

/// Folded per-job sums are means times counts in floating point.
bool near(double folded, std::int64_t exact) {
  const double e = static_cast<double>(exact);
  return std::fabs(folded - e) <= 0.5 + 1e-9 * std::fabs(e);
}

}  // namespace

std::string check_metrics(const SimMetrics& m) {
  if (m.silent_slots + m.success_slots + m.noise_slots != m.slots_simulated) {
    return mismatch("silent+success+noise vs slots_simulated",
                    static_cast<double>(m.silent_slots + m.success_slots +
                                        m.noise_slots),
                    static_cast<double>(m.slots_simulated));
  }
  if (m.slots_awake != m.slots_listening + m.slots_transmitting) {
    return mismatch("slots_awake vs listening+transmitting",
                    static_cast<double>(m.slots_awake),
                    static_cast<double>(m.slots_listening +
                                        m.slots_transmitting));
  }
  if (m.fast_forward_slots > m.slots_simulated || m.fast_forward_slots < 0 ||
      m.jammed_slots > m.noise_slots || m.dark_job_slots > m.live_job_slots ||
      m.slots_awake > m.live_job_slots || m.slots_skipped < 0) {
    return "a subset counter exceeds its superset";
  }
  return {};
}

std::string check_batch(const SimResult& result, std::int64_t jobs) {
  if (std::string err = check_metrics(result.metrics); !err.empty()) {
    return err;
  }
  if (static_cast<std::int64_t>(result.jobs.size()) != jobs) {
    return mismatch("job results vs jobs",
                    static_cast<double>(result.jobs.size()),
                    static_cast<double>(jobs));
  }
  std::int64_t live = 0;
  std::int64_t tx = 0;
  std::int64_t awake = 0;
  for (const auto& j : result.jobs) {
    live += j.live_slots;
    tx += j.transmissions;
    awake += j.awake_slots();
  }
  const SimMetrics& m = result.metrics;
  if (result.successes() > jobs) {
    return "delivered exceeds jobs";
  }
  if (live != m.live_job_slots) {
    return mismatch("sum of per-job live_slots vs live_job_slots",
                    static_cast<double>(live),
                    static_cast<double>(m.live_job_slots));
  }
  if (tx != m.slots_transmitting) {
    return mismatch("sum of per-job transmissions vs slots_transmitting",
                    static_cast<double>(tx),
                    static_cast<double>(m.slots_transmitting));
  }
  if (awake != m.slots_awake) {
    return mismatch("sum of per-job awake slots vs slots_awake",
                    static_cast<double>(awake),
                    static_cast<double>(m.slots_awake));
  }
  return {};
}

std::string check_stream(const SimResult& result) {
  if (std::string err = check_metrics(result.metrics); !err.empty()) {
    return err;
  }
  const auto& s = result.stream;
  if (s.delivered > s.jobs || s.jobs <= 0) {
    return "stream delivered exceeds jobs, or no jobs arrived";
  }
  if (!near(s.awake.sum(), result.metrics.slots_awake)) {
    return mismatch("folded per-job awake slots vs slots_awake",
                    s.awake.sum(),
                    static_cast<double>(result.metrics.slots_awake));
  }
  return {};
}

std::string check_report(const crmd::analysis::ReplicationReport& report) {
  if (std::string err = check_metrics(report.channel); !err.empty()) {
    return err;
  }
  const auto& overall = report.outcomes.overall();
  if (overall.successes() > overall.trials() || overall.trials() == 0) {
    return "delivered exceeds jobs, or no jobs ran";
  }
  if (!near(report.outcomes.awake().sum(), report.channel.slots_awake)) {
    return mismatch("folded per-job awake slots vs slots_awake",
                    report.outcomes.awake().sum(),
                    static_cast<double>(report.channel.slots_awake));
  }
  if (!near(report.outcomes.accesses().sum(),
            report.channel.slots_transmitting)) {
    return mismatch("folded per-job transmissions vs slots_transmitting",
                    report.outcomes.accesses().sum(),
                    static_cast<double>(report.channel.slots_transmitting));
  }
  return {};
}

}  // namespace perfbench
