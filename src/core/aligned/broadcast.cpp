#include "core/aligned/broadcast.hpp"

#include <cassert>

#include "util/math.hpp"

namespace crmd::core::aligned {

BroadcastSchedule::BroadcastSchedule(const Params& params, int level,
                                     std::int64_t estimate)
    : lambda_(params.lambda) {
  assert(level >= 1);
  assert(estimate >= 0);
  if (estimate >= 2) {
    assert(util::is_pow2(estimate));
    // Decay phases: subphase lengths n, n/2, ..., 2.
    for (std::int64_t x = estimate; x >= 2; x /= 2) {
      lens_.push_back(x);
    }
  }
  if (estimate >= 1) {
    // ℓ equal phases with subphase length ℓ.
    for (int i = 0; i < level; ++i) {
      lens_.push_back(level);
    }
  }
  starts_.reserve(lens_.size());
  for (const std::int64_t x : lens_) {
    starts_.push_back(total_);
    total_ += static_cast<std::int64_t>(lambda_) * x;
  }
  assert(total_ == params.broadcast_steps(level, estimate));
}

}  // namespace crmd::core::aligned
