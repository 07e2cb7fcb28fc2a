// E5 — Lemmas 8–10: the size-estimation protocol returns n_w with
// 2n̂ <= n_w <= τ²n̂ w.h.p. in the window size, even under reactive jamming
// with p_jam <= 1/2.
//
// Direct Monte-Carlo of the protocol (binomially sampled transmitter counts
// per probe slot) at the paper's constants (τ = 64), sweeping the true
// class size n̂ and the jamming rate.

#include <random>
#include <vector>

#include "bench_common.hpp"
#include "core/aligned/estimation.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace crmd;

std::int64_t simulate_estimate(const core::Params& params, int level,
                               std::int64_t n_hat, double p_jam,
                               util::Rng& rng) {
  core::aligned::EstimationState est(params, level);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(level));
  while (!est.complete()) {
    const double p = est.tx_probability();
    std::binomial_distribution<std::int64_t> binom(n_hat, p);
    const std::int64_t tx = n_hat > 0 ? binom(rng.engine()) : 0;
    sim::SlotOutcome outcome = sim::SlotOutcome::kSilence;
    if (tx == 1) {
      outcome = sim::SlotOutcome::kSuccess;
    } else if (tx >= 2) {
      outcome = sim::SlotOutcome::kNoise;
    }
    if (outcome == sim::SlotOutcome::kSuccess && rng.bernoulli(p_jam)) {
      outcome = sim::SlotOutcome::kNoise;  // reactive jam
    }
    est.record(outcome, counts);
  }
  return est.estimate(counts, params.tau);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto common = bench::parse_serial(args, /*default_reps=*/200);

  core::Params params;
  params.lambda = bench::int_flag(args, "lambda", 4, 1);
  // tau defaults to the paper's constant.
  params.tau = bench::checked([&] { return args.get_int("tau", 64); });
  bench::checked([&] { params.validate(); });
  const int level = bench::int_flag(args, "level", 16, 1, 40);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);

  const std::vector<std::int64_t> sizes{1, 4, 16, 64, 256, 1024, 4096};
  const std::vector<double> jams{0.0, 0.25, 0.5};

  util::Table table({"n_hat", "p_jam", "median n/n_hat", "min ratio",
                     "max ratio", "P[2n_hat <= n <= tau^2 n_hat]",
                     "P[underestimate]"});
  util::Rng master(common.seed);
  for (const double p_jam : jams) {
    for (const std::int64_t n_hat : sizes) {
      util::Rng rng = master.child(
          static_cast<std::uint64_t>(n_hat * 31 + p_jam * 1000));
      std::vector<double> ratios;
      util::SuccessCounter in_bracket;
      util::SuccessCounter underestimate;
      for (int rep = 0; rep < common.reps; ++rep) {
        const std::int64_t est =
            simulate_estimate(params, level, n_hat, p_jam, rng);
        ratios.push_back(static_cast<double>(est) /
                         static_cast<double>(n_hat));
        in_bracket.add(est >= 2 * n_hat &&
                       est <= params.tau * params.tau * n_hat);
        underestimate.add(est < 2 * n_hat);
      }
      table.add_row(
          {util::fmt_count(n_hat), util::fmt(p_jam, 2),
           util::fmt(util::percentile(ratios, 0.5), 1),
           util::fmt(util::percentile(ratios, 0.0), 1),
           util::fmt(util::percentile(ratios, 1.0), 1),
           util::fmt(in_bracket.rate(), 4),
           util::fmt(underestimate.rate(), 4)});
    }
  }
  bench::emit(table,
              "E5 / Lemmas 8-10 — size-estimate accuracy (class level " +
                  std::to_string(level) + ", lambda=" +
                  std::to_string(params.lambda) + ", tau=" +
                  std::to_string(params.tau) + ", reactive jamming)",
              common, &trace);
  return 0;
}
