#pragma once

#include <bit>
#include <cstdint>
#include <limits>

#include "util/types.hpp"

/// \file rng.hpp
/// Deterministic, splittable pseudo-random number generation.
///
/// Every randomized protocol in the paper flips independent coins per job.
/// To keep simulations reproducible (and failures replayable from a single
/// seed) we use a counter-seeded xoshiro256** generator: a master seed is
/// expanded with SplitMix64, and each job receives an independent stream via
/// `Rng::child(stream)`. The same (seed, job) pair always yields the same
/// coin flips regardless of how many other jobs exist.

namespace crmd::util {

/// SplitMix64 step: the standard 64-bit finalizer-based generator used to
/// expand seeds. Advances `state` and returns the next value.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 (Blackman/Vigna) — fast, 256-bit state, passes BigCrush.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words by repeated SplitMix64 expansion of `seed`.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Advances the generator and returns 64 fresh bits.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

 private:
  std::uint64_t s_[4];
};

/// Convenience wrapper bundling an engine with the distributions the
/// protocols need. All draws are allocation-free; the per-slot ones (the
/// engine step, next_double, bernoulli) are defined inline.
class Rng {
 public:
  /// Constructs a generator for the given master seed.
  explicit Rng(std::uint64_t seed) noexcept : seed_(seed), engine_(seed) {}

  /// Derives an independent child generator. Children are keyed by a stream
  /// id (e.g. a JobId) so per-job randomness is stable under changes to the
  /// number of jobs or the order of draws elsewhere.
  [[nodiscard]] Rng child(std::uint64_t stream) const noexcept;

  /// The master seed this generator was built from.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// 64 uniform random bits.
  [[nodiscard]] std::uint64_t next_u64() noexcept { return engine_(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability `p` (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p) noexcept {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return next_double() < p;
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire rejection for an
  /// unbiased draw.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform slot in the half-open window [begin, end). Requires begin < end.
  [[nodiscard]] Slot slot_in(Slot begin, Slot end) noexcept;

  /// The underlying engine, for use with std:: distributions.
  [[nodiscard]] Xoshiro256& engine() noexcept { return engine_; }

 private:
  std::uint64_t seed_;
  Xoshiro256 engine_;
};

}  // namespace crmd::util
