#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "util/types.hpp"

/// \file wake_heap.hpp
/// The fast-forward engine's queue of parked jobs (DESIGN.md §6j): a 4-ary
/// min-heap of (wake slot, job id) entries that compares wake slots only.
/// Entries with equal keys pop in no particular order — the engine sorts
/// the jobs it wakes by live position before anything reads them. Keys
/// and ids live in separate arrays, so a sift compares within one array:
/// a node's four children are 32 contiguous bytes of keys.

namespace crmd::sim {

class WakeHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// The smallest key. Requires a non-empty heap.
  [[nodiscard]] Slot min_key() const noexcept {
    assert(!empty());
    return keys_.front();
  }

  void push(Slot key, JobId id) {
    keys_.push_back(key);
    ids_.push_back(id);
    // Sift the hole at the back up to where `key` belongs.
    std::size_t hole = keys_.size() - 1;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (keys_[parent] <= key) {
        break;
      }
      keys_[hole] = keys_[parent];
      ids_[hole] = ids_[parent];
      hole = parent;
    }
    keys_[hole] = key;
    ids_[hole] = id;
  }

  /// Pops every entry whose key is at most `now`, calling `wake(id)` for
  /// each in no particular order.
  template <typename F>
  void pop_due(Slot now, F&& wake) {
    while (!keys_.empty() && keys_.front() <= now) {
      wake(ids_.front());
      pop();
    }
  }

 private:
  static constexpr std::size_t kArity = 4;

  // Removes the root: the last entry refills the hole, sifted down.
  void pop() {
    const Slot key = keys_.back();
    const JobId id = ids_.back();
    keys_.pop_back();
    ids_.pop_back();
    const std::size_t n = keys_.size();
    if (n == 0) {
      return;
    }
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      if (first >= n) {
        break;
      }
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t child = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (keys_[c] < keys_[child]) {
          child = c;
        }
      }
      if (key <= keys_[child]) {
        break;
      }
      keys_[hole] = keys_[child];
      ids_[hole] = ids_[child];
      hole = child;
    }
    keys_[hole] = key;
    ids_[hole] = id;
  }

  std::vector<Slot> keys_;
  std::vector<JobId> ids_;
};

}  // namespace crmd::sim
