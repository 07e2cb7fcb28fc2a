// E2 — Lemma 2 / Corollary 3: the success probability of a slot with
// contention C is bracketed by C/e^{2C} <= p_suc <= 2C/e^C when every
// transmission probability is at most 1/2.
//
// For each target contention C we give n jobs probability C/n each,
// Monte-Carlo the slot outcome, and print the measured success rate next to
// the exact formula and both envelopes.

#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace crmd;
  const util::Args args(argc, argv);
  const auto common = bench::parse_serial(args, /*default_reps=*/200000);

  const int n = bench::int_flag(args, "jobs", 32, 1);
  bench::checked([&] { args.reject_unread(); });
  auto trace = bench::make_trace_session(common);
  const std::vector<double> contentions{0.125, 0.25, 0.5, 1.0,
                                        2.0,   4.0,  8.0, 16.0};

  util::Table table({"C", "p per job", "measured p_suc", "exact",
                     "lower C/e^2C", "upper 2C/e^C", "in bracket"});
  util::Rng rng(common.seed);
  for (const double c : contentions) {
    const double p = c / n;
    if (p > 0.5) {
      continue;  // Lemma 2's hypothesis
    }
    std::int64_t successes = 0;
    for (int trial = 0; trial < common.reps; ++trial) {
      int tx = 0;
      for (int j = 0; j < n && tx < 2; ++j) {
        tx += rng.bernoulli(p) ? 1 : 0;
      }
      successes += (tx == 1) ? 1 : 0;
    }
    const double measured =
        static_cast<double>(successes) / static_cast<double>(common.reps);
    const std::vector<double> probs(static_cast<std::size_t>(n), p);
    const double exact = analysis::success_prob_exact(probs);
    const double lo = analysis::success_prob_lower(c);
    const double hi = analysis::success_prob_upper(c);
    table.add_row({util::fmt(c, 3), util::fmt_sci(p, 2),
                   util::fmt(measured, 4), util::fmt(exact, 4),
                   util::fmt(lo, 4), util::fmt(hi, 4),
                   (measured >= lo - 0.01 && measured <= hi + 0.01) ? "yes"
                                                                    : "NO"});
  }
  bench::emit(table,
              "E2 / Lemma 2 + Corollary 3 — contention vs success "
              "probability (" +
                  std::to_string(n) + " jobs, " +
                  std::to_string(common.reps) + " trials per row)",
              common, &trace);
  return 0;
}
