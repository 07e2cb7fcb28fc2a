#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

/// \file pool.hpp
/// The library's one worker pool; every parallel simulation loop runs on
/// it through obs::run_traced, with a result bit-identical for every
/// worker count (DESIGN.md §6d). The pool keeps that promise in one place:
/// tasks may be produced in any order on any worker, but their results are
/// consumed strictly in index order, one at a time.

namespace crmd::util {

/// The largest `--threads=` request the command-line parsers accept.
inline constexpr int kMaxThreads = 1024;

/// Resolves a `--threads=` request: positive values pass through; zero and
/// negative mean "one worker per hardware thread" (minimum 1 when the
/// hardware concurrency is unknown).
[[nodiscard]] inline int resolve_threads(int requested) noexcept {
  if (requested > 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Workers run_ordered uses for `n` tasks at a `threads` request: the
/// resolved request, capped at `n`, and at least 1.
[[nodiscard]] inline int pool_workers(int n, int threads) noexcept {
  return std::max(1, std::min(resolve_threads(threads), n));
}

/// Runs `produce(i)` for every i in [0, n) on pool_workers(n, threads)
/// workers and hands each result to `consume(i, std::move(result))` in
/// increasing i, one call at a time.
///
/// Workers claim indices from an atomic counter; a result that completes
/// ahead of its turn waits in a map until every smaller index has been
/// consumed, so at most the out-of-order window is held. The calling
/// thread is one of the workers: with one worker it does all the work and
/// no thread is started. The first exception from `produce` or `consume`
/// stops the pool: no index is claimed and nothing is consumed after it,
/// and it is rethrown once every worker has joined.
/// A worker thread that cannot be started is not an error: the pool runs
/// with the workers it has, which changes no result.
template <typename Produce, typename Consume>
void run_ordered(int n, int threads, Produce&& produce, Consume&& consume) {
  using Result = std::invoke_result_t<Produce&, int>;
  std::atomic<int> next{0};
  std::mutex mu;  // guards pending, next_consume, error and consume calls
  std::map<int, Result> pending;
  int next_consume = 0;
  std::exception_ptr error;

  const auto work = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        Result result = produce(i);
        const std::lock_guard<std::mutex> lock(mu);
        pending.emplace(i, std::move(result));
        while (!error && !pending.empty() &&
               pending.begin()->first == next_consume) {
          consume(next_consume, std::move(pending.begin()->second));
          pending.erase(pending.begin());
          ++next_consume;
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) {
          error = std::current_exception();
        }
        next.store(n, std::memory_order_relaxed);  // stop the pool
        return;
      }
    }
  };

  const int workers = pool_workers(n, threads);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    try {
      pool.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // out of threads: finish on the workers already running
    }
  }
  work();
  for (std::thread& t : pool) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace crmd::util
