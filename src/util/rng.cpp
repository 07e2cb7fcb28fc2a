#include "util/rng.hpp"

namespace crmd::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
  // Guard against the (astronomically unlikely) all-zero state, which is a
  // fixed point of xoshiro.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

Rng Rng::child(std::uint64_t stream) const noexcept {
  // Mix the stream id into the master seed through two SplitMix64 rounds so
  // that nearby streams (job 0, job 1, ...) land far apart in seed space.
  std::uint64_t s = seed_ ^ (0xA0761D6478BD642FULL * (stream + 1));
  const std::uint64_t mixed = splitmix64(s);
  return Rng(mixed ^ splitmix64(s));
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless unbiased bounded draw.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

Slot Rng::slot_in(Slot begin, Slot end) noexcept {
  return range(begin, end - 1);
}

}  // namespace crmd::util
