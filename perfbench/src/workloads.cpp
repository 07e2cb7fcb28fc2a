#include "workloads.hpp"

#include <exception>
#include <stdexcept>
#include <utility>
#include <variant>

#include "analysis/runner.hpp"
#include "checks.hpp"
#include "core/registry.hpp"
#include "obs/profiler.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/arrivals.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using crmd::Slot;
using crmd::analysis::InstanceGen;
using crmd::analysis::ReplicationReport;
using crmd::analysis::RunOptions;
using crmd::sim::ArrivalProcess;
using crmd::sim::ArrivalSpec;
using crmd::sim::FastForward;
using crmd::sim::ProtocolFactory;
using crmd::sim::SimConfig;
using crmd::sim::SimResult;
using crmd::sim::Simulation;
using crmd::workload::Instance;

/// Seed of run (or sweep) `index` of a pass.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ProtocolFactory lookup(const std::string& name) {
  crmd::core::Params params;
  params.lambda = 2;
  auto factory = crmd::core::make_protocol(name, params);
  if (!factory) {
    throw std::invalid_argument("perfbench: unknown protocol " + name);
  }
  return *std::move(factory);
}

/// Records a failure; the first message is kept.
void fail(PassResult& out, const std::string& why) {
  ++out.failed_runs;
  if (out.failure.empty()) {
    out.failure = why;
  }
}

/// Attaches an obs::Tracer with a timed Timeline sink for kObs passes.
struct ObsSession {
  std::unique_ptr<crmd::obs::Tracer> tracer;
  std::shared_ptr<TimedSink> sink;

  explicit ObsSession(Mode mode) {
    if (mode != Mode::kObs) {
      return;
    }
    tracer = std::make_unique<crmd::obs::Tracer>();
    sink = std::make_shared<TimedSink>(
        std::make_shared<crmd::obs::Timeline>());
    tracer->add_sink(sink);
  }

  void close(LayerProbe* probe) {
    if (!tracer) {
      return;
    }
    tracer->close();
    if (probe != nullptr) {
      probe->events += tracer->emitted();
      probe->dropped_events += tracer->dropped();
      probe->sink.calls += sink->stats().calls;
      probe->sink.sampled += sink->stats().sampled;
      probe->sink.sampled_ticks += sink->stats().sampled_ticks;
      probe->sink.empty += sink->stats().empty;
      probe->sink.empty_ticks += sink->stats().empty_ticks;
    }
  }
};

/// Thrown by a StopAtFirstSlot protocol; `t` is when the slot began.
struct FirstSlot {
  std::int64_t t;
};

/// Builds and activates the wrapped protocol and throws FirstSlot when the
/// engine first asks it about a slot, so a run stops right after its
/// set-up. Keeps the inner factory's arena path, so construction costs
/// what it costs in a pass.
class StopAtFirstSlot final : public crmd::sim::Protocol {
 public:
  StopAtFirstSlot(Protocol* inner, bool arena_owned) noexcept
      : inner_(inner), arena_owned_(arena_owned) {}
  ~StopAtFirstSlot() override {
    if (arena_owned_) {
      inner_->~Protocol();
    } else {
      delete inner_;
    }
  }
  StopAtFirstSlot(const StopAtFirstSlot&) = delete;
  StopAtFirstSlot& operator=(const StopAtFirstSlot&) = delete;

  void on_activate(const crmd::sim::JobInfo& info) override {
    inner_->on_activate(info);
  }
  crmd::sim::SlotAction on_slot(const crmd::sim::SlotView& /*v*/) override {
    throw FirstSlot{now_ns()};
  }
  void on_feedback(const crmd::sim::SlotView& /*v*/,
                   const crmd::sim::SlotFeedback& /*fb*/) override {}
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] crmd::sim::DormantSpan dormant_span(
      const crmd::sim::SlotView& /*v*/) const override {
    throw FirstSlot{now_ns()};
  }

  static ProtocolFactory wrap(const ProtocolFactory& inner) {
    ProtocolFactory::HeapFn heap = [inner](const crmd::sim::JobInfo& info,
                                           crmd::util::Rng rng) {
      std::unique_ptr<Protocol> p = inner(info, std::move(rng));
      auto outer = std::make_unique<StopAtFirstSlot>(p.get(), false);
      p.release();  // now owned by `outer`
      return std::unique_ptr<Protocol>(std::move(outer));
    };
    if (!inner.arena_aware()) {
      return ProtocolFactory(std::move(heap), nullptr);
    }
    ProtocolFactory::ArenaFn arena =
        [inner](const crmd::sim::JobInfo& info, crmd::util::Rng rng,
                crmd::util::MonotonicArena& a) -> Protocol* {
      return a.create<StopAtFirstSlot>(inner.emplace(info, std::move(rng), a),
                                       true);
    };
    return ProtocolFactory(std::move(heap), std::move(arena));
  }

 private:
  Protocol* inner_;
  bool arena_owned_;
};

/// Seconds from `t0` until `run` reaches its first slot. `run` must wrap
/// its factory with StopAtFirstSlot::wrap; the stopped run's destruction
/// is not counted.
template <typename Run>
double seconds_to_first_slot(std::int64_t t0, Run&& run) {
  try {
    run();
  } catch (const FirstSlot& stop) {
    return static_cast<double>(stop.t - t0) / 1e9;
  }
  throw std::logic_error("perfbench: set-up run never reached a slot");
}

/// One Simulation per run: a batch instance or a streaming arrival process.
struct SerialSpec {
  std::string protocol;
  int runs = 1;
  SimConfig config;  ///< seed is replaced per run
  std::int64_t batch_jobs = 0;
  Slot batch_window = 0;
  std::optional<ArrivalSpec> arrivals;  ///< set: streaming runs
};

class SerialWorkload final : public Workload {
 public:
  SerialWorkload(SerialSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)),
        seed_(seed),
        family_(family_of(spec_.protocol).value()) {}

  double setup() override {
    const std::int64_t t0 = now_ns();
    factory_ = lookup(spec_.protocol);
    return seconds_to_first_slot(t0, [&] {
      (void)run_plain(StopAtFirstSlot::wrap(factory_), config_for(0));
    });
  }

  PassResult pass(Mode mode, LayerProbe* probe) override {
    PassResult out;
    const ProtocolFactory factory = mode == Mode::kDecorated
                                        ? decorate_factory(factory_, family_)
                                        : factory_;
    ObsSession session(mode);
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < spec_.runs; ++r) {
      SimConfig config = config_for(r);
      config.tracer = session.tracer.get();
      SimResult result;
      try {
        result = mode == Mode::kDecorated
                     ? run_spanned(factory, config, *probe)
                     : run_plain(factory, config);
      } catch (const std::exception& e) {
        fail(out, e.what());
        continue;
      }
      ++out.runs;
      const std::string err = spec_.arrivals
                                  ? check_stream(result)
                                  : check_batch(result, spec_.batch_jobs);
      if (!err.empty()) {
        fail(out, err);
      }
      out.digest.add(digest(result));
      out.metrics.merge(result.metrics);
      out.family_job_slots[static_cast<std::size_t>(family_)] +=
          result.metrics.live_job_slots;
      if (spec_.arrivals) {
        out.jobs += result.stream.jobs;
        out.delivered += result.stream.delivered;
      } else {
        out.jobs += static_cast<std::int64_t>(result.jobs.size());
        out.delivered += result.successes();
      }
    }
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (mode == Mode::kDecorated) {
      probe->pass_ns += now_ns() - t0;
    }
    session.close(probe);
    return out;
  }

  [[nodiscard]] bool replicated() const override { return false; }
  [[nodiscard]] bool builds_in_step() const override {
    return spec_.arrivals.has_value();
  }

 private:
  using Input = std::variant<Instance, std::unique_ptr<ArrivalProcess>>;

  [[nodiscard]] SimConfig config_for(int run) const {
    SimConfig config = spec_.config;
    config.seed = derive_seed(seed_, static_cast<std::uint64_t>(run));
    return config;
  }

  /// The workload layer's part of a run; `probe` non-null wraps the
  /// arrival process so its next() calls are timed.
  [[nodiscard]] Input generate(LayerProbe* probe) const {
    if (!spec_.arrivals) {
      return crmd::workload::gen_batch(spec_.batch_jobs, spec_.batch_window);
    }
    std::unique_ptr<ArrivalProcess> process = spec_.arrivals->make();
    if (probe != nullptr) {
      process =
          std::make_unique<TimedArrivals>(std::move(process), &probe->arrivals);
    }
    return process;
  }

  static Simulation construct(Input input, const ProtocolFactory& factory,
                              const SimConfig& config) {
    if (auto* instance = std::get_if<Instance>(&input)) {
      return Simulation(std::move(*instance), factory, config);
    }
    return Simulation(
        std::move(std::get<std::unique_ptr<ArrivalProcess>>(input)), factory,
        config);
  }

  SimResult run_plain(const ProtocolFactory& factory,
                      const SimConfig& config) const {
    Input input = generate(nullptr);
    if (auto* instance = std::get_if<Instance>(&input)) {
      return crmd::sim::run(std::move(*instance), factory, config);
    }
    return crmd::sim::run_stream(
        std::move(std::get<std::unique_ptr<ArrivalProcess>>(input)), factory,
        config);
  }

  /// run -> generate / construct / steps / finish, one span each; every
  /// step() is timed back to back so the step times tile the steps span.
  SimResult run_spanned(const ProtocolFactory& factory,
                        const SimConfig& config, LayerProbe& probe) const {
    SpanLog& log = probe.spans;
    const std::uint32_t run = log.next_run();
    const std::uint32_t root = log.next_id();
    const std::int64_t t0 = now_ns();
    Input input = generate(&probe);
    const std::int64_t t1 = now_ns();
    Simulation sim = construct(std::move(input), factory, config);
    const std::int64_t t2 = now_ns();
    std::int64_t prev = t2;
    for (bool more = true; more;) {
      more = sim.step();
      const std::int64_t t = now_ns();
      probe.step_ns.push_back(t - prev);
      prev = t;
    }
    const std::int64_t t3 = prev;
    SimResult result = sim.finish();
    const std::int64_t t4 = now_ns();
    log.add({root, 0, run, "run", t0, t4});
    log.add({log.next_id(), root, run, "generate", t0, t1});
    log.add({log.next_id(), root, run, "construct", t1, t2});
    log.add({log.next_id(), root, run, "steps", t2, t3});
    log.add({log.next_id(), root, run, "finish", t3, t4});
    ++probe.runs;
    probe.layer_ns += t4 - t0;
    probe.gen_ns += t1 - t0;
    probe.ctor_ns += t2 - t1;
    probe.steps_ns += t3 - t2;
    probe.finish_ns += t4 - t3;
    probe.jobs += spec_.arrivals ? result.stream.jobs
                                 : static_cast<std::int64_t>(result.jobs.size());
    return result;
  }

  SerialSpec spec_;
  std::uint64_t seed_;
  Family family_;
  ProtocolFactory factory_;
};

/// One analysis::run_replications call per sweep.
struct Sweep {
  std::string protocol;
  InstanceGen gen;
  RunOptions options;  ///< threads and tracer are set per pass
  int reps = 1;
};

/// Nanoseconds the runner's phase `name` ("generate", "simulation",
/// "aggregate") accrued since the last profiler reset, summed over workers.
std::int64_t profiler_ns(const char* name) {
  for (const auto& phase : crmd::obs::global_profiler().phases()) {
    if (phase.name == name) {
      return static_cast<std::int64_t>(phase.ms * 1e6);
    }
  }
  return 0;
}

class ReplicatedWorkload final : public Workload {
 public:
  ReplicatedWorkload(std::vector<Sweep> sweeps, std::uint64_t seed)
      : sweeps_(std::move(sweeps)), seed_(seed) {}

  /// Runs the first sweep's first replication up to its first slot.
  double setup() override {
    const std::int64_t t0 = now_ns();
    factories_.clear();
    for (const Sweep& sweep : sweeps_) {
      factories_.push_back(lookup(sweep.protocol));
    }
    const Sweep& first = sweeps_.front();
    return seconds_to_first_slot(t0, [&] {
      (void)crmd::analysis::run_replications(
          first.gen, StopAtFirstSlot::wrap(factories_.front()), 1,
          derive_seed(seed_, 0), first.options);
    });
  }

  PassResult pass(Mode mode, LayerProbe* probe) override {
    PassResult out;
    ObsSession session(mode);
    const std::int64_t t0 = now_ns();
    for (std::size_t s = 0; s < sweeps_.size(); ++s) {
      const Sweep& sweep = sweeps_[s];
      const Family family = family_of(sweep.protocol).value();
      const ProtocolFactory factory =
          mode == Mode::kDecorated ? decorate_factory(factories_[s], family)
                                   : factories_[s];
      RunOptions options = sweep.options;
      options.threads = mode == Mode::kParallel ? kParallelWorkers : 1;
      options.tracer = session.tracer.get();
      std::optional<RepTracker> tracker;
      if (mode == Mode::kDecorated) {
        tracker.emplace(probe->spans);
      }
      const InstanceGen gen = tracker ? tracker->decorate(sweep.gen) : sweep.gen;
      crmd::obs::global_profiler().reset();
      const std::int64_t s0 = now_ns();
      ReplicationReport report;
      try {
        report = crmd::analysis::run_replications(
            gen, factory, sweep.reps, derive_seed(seed_, s), options);
      } catch (const std::exception& e) {
        if (tracker) {
          tracker->close_all(now_ns());
        }
        fail(out, e.what());
        out.failed_runs += sweep.reps - 1;
        continue;
      }
      const std::int64_t s1 = now_ns();
      out.runs += report.replications;
      // A sweep reports only summed metrics, so a violated identity fails
      // every replication of the sweep.
      if (const std::string err = check_report(report); !err.empty()) {
        fail(out, err);
        out.failed_runs += sweep.reps - 1;
      }
      out.digest.add(digest(report));
      out.metrics.merge(report.channel);
      out.family_job_slots[static_cast<std::size_t>(family)] +=
          report.channel.live_job_slots;
      out.jobs += static_cast<std::int64_t>(report.outcomes.jobs());
      out.delivered +=
          static_cast<std::int64_t>(report.outcomes.overall().successes());
      if (tracker) {
        tracker->close_all(s1);
        const RepTracker::Totals totals = tracker->totals();
        probe->sweep_ns += s1 - s0;
        probe->reps += totals.reps;
        probe->jobs += totals.jobs;
        probe->rep_gen_ns += totals.gen_ns;
        probe->rep_construct_ns += totals.construct_ns;
        probe->rep_constructs += totals.constructs;
        probe->sim_ns += profiler_ns("simulation");
        probe->layer_ns += profiler_ns("generate") + profiler_ns("simulation") +
                           profiler_ns("aggregate");
      }
    }
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (mode == Mode::kDecorated) {
      probe->pass_ns += now_ns() - t0;
    }
    session.close(probe);
    return out;
  }

  [[nodiscard]] bool replicated() const override { return true; }

 private:
  std::vector<Sweep> sweeps_;
  std::uint64_t seed_;
  std::vector<ProtocolFactory> factories_;
};

// ---------------------------------------------------------------------------
// The workloads. Passes are kept short (0.2-1.2 s on a 2020s x86 core) so
// a 20 s measurement yields at least 20 passes.

std::unique_ptr<Workload> dense_burst(std::uint64_t seed) {
  SerialSpec spec;
  spec.protocol = "uniform";
  spec.runs = 1;
  spec.batch_jobs = 8192;
  spec.batch_window = 4 * 8192;  // the whole window, until every job retires
  spec.config.fast_forward = FastForward::kOn;
  return std::make_unique<SerialWorkload>(std::move(spec), seed);
}

std::unique_ptr<Workload> stream_bursty(std::uint64_t seed) {
  SerialSpec spec;
  spec.protocol = "energy_beb";
  spec.runs = 5;
  ArrivalSpec mmpp;  // bench_megascale's stream/mmpp shape
  mmpp.kind = ArrivalSpec::Kind::kMmpp;
  mmpp.rate = 0.0002;
  mmpp.rate_hi = 0.01;
  mmpp.window = 4096;
  mmpp.dwell = 16384;
  spec.arrivals = mmpp;
  spec.config.horizon = Slot{1} << 24;
  spec.config.fast_forward = FastForward::kOn;
  spec.config.keep_job_results = false;
  return std::make_unique<SerialWorkload>(std::move(spec), seed);
}

std::unique_ptr<Workload> paper_sweep(std::uint64_t seed) {
  RunOptions options;
  options.jammer_gen = [](crmd::util::Rng /*rng*/) {
    return crmd::sim::make_reactive_jammer(0.25);
  };
  options.fast_forward = FastForward::kOn;
  std::vector<Sweep> sweeps;
  crmd::workload::AlignedConfig aligned;
  aligned.gamma = 1.0 / 32;
  aligned.fill = 0.5;
  aligned.horizon = 65536;
  sweeps.push_back(
      {"aligned",
       [aligned](crmd::util::Rng& rng) {
         return crmd::workload::gen_aligned(aligned, rng);
       },
       options, 2});
  crmd::workload::GeneralConfig general;
  general.gamma = 1.0 / 32;
  general.fill = 0.5;
  general.horizon = 65536;
  sweeps.push_back(
      {"punctual",
       [general](crmd::util::Rng& rng) {
         return crmd::workload::gen_general(general, rng);
       },
       options, 2});
  return std::make_unique<ReplicatedWorkload>(std::move(sweeps), seed);
}

std::unique_ptr<Workload> fdma_faults(std::uint64_t seed) {
  RunOptions options;
  options.feedback = crmd::sim::FeedbackModel::binary_ack();
  options.faults.feedback_loss_rate = 0.01;
  options.faults.crash_rate = 0.0005;
  options.faults.stall_min = 4;
  options.faults.stall_max = 16;
  options.multichannel.channels = 4;
  options.multichannel.migrate = true;
  options.fast_forward = FastForward::kOn;  // disabled by the faults
  std::vector<Sweep> sweeps;
  sweeps.push_back({"nocd_robust",
                    [](crmd::util::Rng& /*rng*/) {
                      return crmd::workload::gen_batch(1024, 1024);
                    },
                    options, 12});
  return std::make_unique<ReplicatedWorkload>(std::move(sweeps), seed);
}

struct Entry {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t);
  std::uint64_t pinned;  ///< Digests::pinned of the pass at kDefaultSeed
};

const Entry kWorkloads[] = {
    {"dense_burst", dense_burst, 0xb9cfa8b77a21c59dULL},
    {"paper_sweep", paper_sweep, 0x1c041b4c17c69186ULL},
    {"stream_bursty", stream_bursty, 0x031aa8b36dd0d1b3ULL},
    {"fdma_faults", fdma_faults, 0x7b9a31bcbc08b7b0ULL},
};

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Entry& e : kWorkloads) {
    names.emplace_back(e.name);
  }
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  for (const Entry& e : kWorkloads) {
    if (name == e.name) {
      return e.make(seed);
    }
  }
  return nullptr;
}

std::optional<std::uint64_t> pinned_digest(const std::string& name) {
  for (const Entry& e : kWorkloads) {
    if (name == e.name) {
      return e.pinned;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
