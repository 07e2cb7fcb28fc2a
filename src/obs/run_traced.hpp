#pragma once

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/pool.hpp"

/// \file run_traced.hpp (obs)
/// The one way independent simulations — replications, shards, a
/// harness's per-rep loop — run on the worker pool (DESIGN.md §6d).

namespace crmd::obs {

/// Runs `produce(i, task_tracer)` for every i in [0, n) on
/// util::pool_workers(n, threads) workers and hands each result to
/// `consume(i, std::move(result))` in increasing i, one call at a time
/// (util::run_ordered), so folds are bit-identical for every worker count.
///
/// `task_tracer` is what task i passes as its SimConfig::tracer: null with
/// tracing off; `tracer` itself with one worker, where tasks run one after
/// another on the calling thread; otherwise a private tracer whose events
/// are re-emitted into `tracer` (fresh seq numbers) just before the task's
/// consume. Sinks thus see the same stream for every worker count.
///
/// Each consume, with its replay, is charged to the global profiler's
/// "aggregate" phase. `produce` runs concurrently and must not touch shared
/// mutable state; `consume` may fold into anything.
template <typename Produce, typename Consume>
void run_traced(int n, int threads, Tracer* tracer, Produce&& produce,
                Consume&& consume) {
  using Result = std::invoke_result_t<Produce&, int, Tracer*>;
  struct Recorded {
    Result result;
    std::vector<TraceEvent> events;
  };
  const bool record =
      tracer != nullptr && util::pool_workers(n, threads) > 1;
  RunProfiler& prof = global_profiler();
  util::run_ordered(
      n, threads,
      [&](int i) {
        if (!record) {
          return Recorded{produce(i, tracer), {}};
        }
        Tracer local;
        const auto sink = std::make_shared<CollectSink>();
        local.add_sink(sink);
        Result result = produce(i, &local);
        local.close();
        return Recorded{std::move(result), sink->take()};
      },
      [&](int i, Recorded&& recorded) {
        const auto scope = prof.phase("aggregate");
        for (const TraceEvent& ev : recorded.events) {
          tracer->emit(ev.kind, ev.slot, ev.job, ev.a, ev.b, ev.x, ev.label);
        }
        consume(i, std::move(recorded.result));
      });
}

}  // namespace crmd::obs
