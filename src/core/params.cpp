#include "core/params.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/punctual/round.hpp"
#include "util/math.hpp"

namespace crmd::core {

std::int64_t Params::estimation_steps(int level) const noexcept {
  return static_cast<std::int64_t>(lambda) * level * level;
}

std::int64_t Params::estimation_phase_len(int level) const noexcept {
  return static_cast<std::int64_t>(lambda) * level;
}

std::int64_t Params::broadcast_steps(int level, std::int64_t estimate) const {
  assert(estimate >= 0);
  if (estimate == 0) {
    return 0;
  }
  std::int64_t decay = 0;
  if (estimate >= 2) {
    assert(util::is_pow2(estimate));
    // λn + λn/2 + ... + λ·2 = λ(2n − 2).
    decay = static_cast<std::int64_t>(lambda) * (2 * estimate - 2);
  }
  const std::int64_t equal =
      static_cast<std::int64_t>(lambda) * level * level;
  return decay + equal;
}

std::int64_t Params::total_steps(int level, std::int64_t estimate) const {
  return estimation_steps(level) + broadcast_steps(level, estimate);
}

double Params::pullback_tx_prob(Slot window) const noexcept {
  const double lg = util::log2_at_least(static_cast<double>(window), 1.0);
  const double p =
      pullback_prob_scale /
      (static_cast<double>(window) * std::pow(lg, pullback_prob_log_exp));
  return std::min(p, max_tx_prob);
}

std::int64_t Params::pullback_elections(Slot window) const noexcept {
  const double lg = util::log2_at_least(static_cast<double>(window), 1.0);
  const double uncapped =
      static_cast<double>(lambda) * std::pow(lg, pullback_len_log_exp);
  const double cap = pullback_window_frac * static_cast<double>(window) /
                     static_cast<double>(punctual::kRoundLength);
  const double chosen = std::min(uncapped, std::max(cap, 1.0));
  return static_cast<std::int64_t>(chosen);
}

double Params::anarchist_tx_prob(Slot window) const noexcept {
  const double lg = util::log2_at_least(static_cast<double>(window), 1.0);
  const double p = static_cast<double>(lambda) *
                   std::pow(lg, anarchist_log_exp) /
                   static_cast<double>(window);
  return std::min(p, max_tx_prob);
}

double Params::degraded_floor_tx_prob(Slot window,
                                      Slot remaining) const noexcept {
  const Slot horizon = std::max<Slot>(1, std::min(window, remaining));
  const double lg = util::log2_at_least(static_cast<double>(window), 1.0);
  const double p = static_cast<double>(lambda) *
                   std::pow(lg, anarchist_log_exp) /
                   static_cast<double>(horizon);
  return std::min(p, max_tx_prob);
}

void Params::validate() const {
  if (lambda < 1) {
    throw std::invalid_argument("Params: lambda must be >= 1");
  }
  // Every floating-point range check is written as !(in range), so NaN
  // fails it instead of slipping through.
  if (!(max_tx_prob > 0.0 && max_tx_prob <= 0.5)) {
    throw std::invalid_argument("Params: max_tx_prob must be in (0, 0.5]");
  }
  if (uniform_attempts < 1 || uniform_attempts > kMaxUniformAttempts) {
    throw std::invalid_argument("Params: uniform_attempts must be in [1, 4]");
  }
  if (tau < 1 || !util::is_pow2(tau)) {
    throw std::invalid_argument("Params: tau must be a positive power of 2");
  }
  if (min_class < 1 || min_class > 40) {
    throw std::invalid_argument("Params: min_class must be in [1, 40]");
  }
  if (!(pullback_prob_log_exp >= 0.0 && pullback_len_log_exp >= 0.0 &&
        anarchist_log_exp >= 0.0)) {
    throw std::invalid_argument("Params: log exponents must be >= 0");
  }
  if (!(pullback_prob_scale > 0.0)) {
    throw std::invalid_argument("Params: pullback_prob_scale must be > 0");
  }
  if (!(pullback_window_frac > 0.0 && pullback_window_frac <= 1.0)) {
    throw std::invalid_argument(
        "Params: pullback_window_frac must be in (0, 1]");
  }
  if (punctual_min_window < 1) {
    throw std::invalid_argument("Params: punctual_min_window must be >= 1");
  }
  if (desync_tolerance < 0) {
    throw std::invalid_argument("Params: desync_tolerance must be >= 0");
  }
  if (nocd_epoch_len < 1) {
    throw std::invalid_argument("Params: nocd_epoch_len must be >= 1");
  }
  if (nocd_dry_sweep_limit < 1) {
    throw std::invalid_argument("Params: nocd_dry_sweep_limit must be >= 1");
  }
  if (!(energy_spread_frac > 0.0 && energy_spread_frac <= 8.0)) {
    throw std::invalid_argument(
        "Params: energy_spread_frac must be in (0, 8]");
  }
}

}  // namespace crmd::core
