// Library workloads: the programmatic Linear Road model replayed through
// Engine::Run, one call per application tick, in a closed loop (the next
// tick is submitted when the previous Run returned).
//
//   lr-serial   8 xways x 50 segments x 1800 ticks, serial engine
//   lr-pool     2 xways x 50 segments x 7200 ticks on 4 pinned workers
//   lr-durable  lr-serial with WAL + checkpoints and fsync none
//
// lr-pool's whole run, the engine's workers included, stays on one CPU
// (OneCpu).
//
// A run replays the stream in passes until its time is up; every pass
// builds a fresh engine (model, optimize, create: one set-up sample) and
// its derived events must digest to the same value as one serial
// whole-batch Run of the stream, computed before the timed passes.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "runtime/engine.h"
#include "workloads.h"
#include "workloads/linear_road.h"

namespace perfbench {
namespace {

using caesar::CaesarModel;
using caesar::Engine;
using caesar::EngineOptions;
using caesar::EventBatch;
using caesar::EventPtr;
using caesar::Result;
using caesar::RunStats;
using caesar::Status;
using caesar::Timestamp;
using caesar::TypeRegistry;

struct LibrarySpec {
  const char* name;
  int xways;
  Timestamp duration;  // ticks of the stream
  int threads;
  bool durable;
};

constexpr LibrarySpec kSpecs[] = {
    {"lr-serial", 8, 1800, 1, false},
    // Small ticks (~32 events) on four workers, so the per-tick dispatch,
    // barrier and merge dominate. A quarter of lr-serial's segments, so
    // four times its duration: the stream then holds as many congestion
    // and accident episodes, and the seed moves its cost as little.
    {"lr-pool", 2, 7200, 4, false},
    {"lr-durable", 8, 1800, 1, true},
};

constexpr int kSegments = 50;
// The generator's episode counts are per segment over the whole stream.
// They are scaled so that every stream has the episode density of one of
// this duration.
constexpr Timestamp kEpisodeSpan = 1800;
// Set-ups timed before each pass on top of the pass's own, so the set-up
// median rests on enough samples spread over the whole run.
constexpr int kExtraSetupsPerPass = 8;

const LibrarySpec* FindSpec(const std::string& name) {
  for (const LibrarySpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// Options of a workload's engine. The scheduler and the pattern engine
// are set here so that neither CAESAR_SCHEDULER nor a changed default
// alters the workload.
EngineOptions WorkloadOptions(const LibrarySpec& spec,
                              const std::string& wal_dir, bool traced) {
  EngineOptions options;
  options.num_threads = spec.threads;
  options.scheduler = caesar::SchedulerMode::kPinned;
  options.pattern_engine = caesar::PatternEngine::kInterpreted;
  if (spec.durable) {
    options.durability.mode = caesar::DurabilityMode::kWalCheckpoint;
    options.durability.dir = wal_dir;
    options.durability.fsync = caesar::FsyncPolicy::kNone;
  }
  if (traced) options.metrics = caesar::MetricsGranularity::kOperator;
  return options;
}

// An engine with the registry and model it references.
struct Instance {
  std::unique_ptr<TypeRegistry> registry;
  std::unique_ptr<CaesarModel> model;
  std::unique_ptr<Engine> engine;
  double model_s = 0.0;
  double optimize_s = 0.0;
  double create_s = 0.0;
};

Result<Instance> SetUp(EngineOptions options, Tracer* tracer) {
  SpanScope setup_span(tracer, "harness", "setup");
  Instance instance;
  instance.registry = std::make_unique<TypeRegistry>();
  const double start = MonoSeconds();
  {
    SpanScope span(tracer, "query", "MakeLinearRoadModel");
    caesar::RegisterLinearRoadTypes(instance.registry.get());
    CAESAR_ASSIGN_OR_RETURN(
        CaesarModel model,
        caesar::MakeLinearRoadModel(caesar::LinearRoadModelConfig(),
                                    instance.registry.get()));
    instance.model = std::make_unique<CaesarModel>(std::move(model));
  }
  const double modeled = MonoSeconds();
  Result<caesar::ExecutablePlan> plan = [&] {
    SpanScope span(tracer, "optimizer", "OptimizeModel");
    return caesar::OptimizeModel(*instance.model, caesar::OptimizerOptions());
  }();
  CAESAR_RETURN_IF_ERROR(plan.status());
  const double optimized = MonoSeconds();
  {
    SpanScope span(tracer, "runtime", "Engine::Create");
    CAESAR_ASSIGN_OR_RETURN(
        instance.engine,
        Engine::Create(std::move(plan).value(), std::move(options)));
  }
  const double created = MonoSeconds();
  instance.model_s = modeled - start;
  instance.optimize_s = optimized - modeled;
  instance.create_s = created - optimized;
  return instance;
}

uint64_t DigestEvents(const EventBatch& events, const TypeRegistry& registry) {
  uint64_t hash = kDigestBasis;
  for (const EventPtr& event : events) {
    hash = Digest(hash, event->ToString(registry));
    hash = Digest(hash, "\n");
  }
  return hash;
}

std::vector<EventBatch> SplitTicks(const EventBatch& stream) {
  std::vector<EventBatch> ticks;
  for (const EventPtr& event : stream) {
    if (ticks.empty() || ticks.back().front()->time() != event->time()) {
      ticks.emplace_back();
    }
    ticks.back().push_back(event);
  }
  return ticks;
}

// Sums over the passes of one phase (untraced or traced).
struct Phase {
  int passes = 0;
  int64_t events = 0;
  int64_t ticks = 0;
  int64_t runs = 0;
  int64_t failed_runs = 0;
  bool digest_ok = true;
  double run_wall_s = 0.0;  // sum of the Run walls
  // One entry per pass; the end-to-end metrics are their medians, which
  // keeps a pass slowed by a neighbour on a shared machine from moving them.
  std::vector<double> events_per_s, cpu_us_per_event;
  std::vector<double> tick_p50_ms, tick_p99_ms;
  // Run walls of every tick of the phase, split by whether the Run wrote a
  // checkpoint.
  std::vector<double> checkpoint_tick_ms;
  std::vector<double> plain_tick_ms;
  RunStats sums;  // counters summed over every Run of the phase
  int64_t partitions = 0;  // resident at the end of the last pass
  // From CollectStatistics (traced phase only).
  std::map<std::string, double> work_units;
  caesar::RunningStats ingest_s;
  caesar::RunningStats gc_pause_s;
};

struct SetupSamples {
  std::vector<double> setup_s, model_ms, optimize_ms, create_ms;

  void Add(const Instance& instance) {
    setup_s.push_back(instance.model_s + instance.optimize_s +
                      instance.create_s);
    model_ms.push_back(instance.model_s * 1e3);
    optimize_ms.push_back(instance.optimize_s * 1e3);
    create_ms.push_back(instance.create_s * 1e3);
  }
};

void AddRunStats(const RunStats& run, RunStats* sums) {
  sums->input_events += run.input_events;
  sums->derived_events += run.derived_events;
  sums->cpu_seconds += run.cpu_seconds;
  sums->ops_executed += run.ops_executed;
  sums->suspended_chains += run.suspended_chains;
  sums->executed_chains += run.executed_chains;
  sums->parallel_ticks += run.parallel_ticks;
  sums->parallel_tasks += run.parallel_tasks;
  sums->shard_imbalance += run.shard_imbalance;
  sums->tasks_stolen += run.tasks_stolen;
  sums->barrier_wait_seconds += run.barrier_wait_seconds;
  sums->wal_records += run.wal_records;
  sums->wal_bytes += run.wal_bytes;
  sums->checkpoints_written += run.checkpoints_written;
}

const char* KindGroup(caesar::Operator::Kind kind) {
  switch (kind) {
    case caesar::Operator::Kind::kPattern:
    case caesar::Operator::Kind::kCompiledPattern:
      return "pattern";
    case caesar::Operator::Kind::kAggregate:
      return "aggregate";
    case caesar::Operator::Kind::kFilter:
      return "filter";
    case caesar::Operator::Kind::kProjection:
      return "projection";
    case caesar::Operator::Kind::kContextWindow:
    case caesar::Operator::Kind::kContextInit:
    case caesar::Operator::Kind::kContextTerm:
      return "context";
  }
  return "context";
}

class LibraryRun {
 public:
  LibraryRun(const LibrarySpec& spec, const RunConfig& config)
      : spec_(spec),
        config_(config),
        wal_dir_(config.work_dir + "/wal-" + std::to_string(::getpid())) {}

  ~LibraryRun() { RemoveTree(wal_dir_); }

  LibraryRun(const LibraryRun&) = delete;
  LibraryRun& operator=(const LibraryRun&) = delete;

  WorkloadResult Run(Tracer* tracer);

 private:
  Status Generate();
  Status ComputeReference(Tracer* tracer);
  // Replays the stream in passes for `seconds` (at least one pass).
  Status RunPhase(double seconds, Tracer* tracer, Phase* phase);
  Status RunPass(Tracer* tracer, Phase* phase);

  const LibrarySpec& spec_;
  const RunConfig& config_;
  const std::string wal_dir_;

  EventBatch stream_;
  std::vector<EventBatch> ticks_;
  uint64_t reference_ = 0;
  SetupSamples setups_;
  int64_t next_tick_id_ = 0;
};

Status LibraryRun::Generate() {
  caesar::LinearRoadConfig lr;
  lr.num_xways = config_.tiny ? 1 : spec_.xways;
  lr.num_segments = config_.tiny ? 4 : kSegments;
  lr.duration = config_.tiny ? 150 : spec_.duration;
  const double span = static_cast<double>(spec_.duration) / kEpisodeSpan;
  lr.congestion_episodes_per_segment *= span;
  lr.accident_episodes_per_segment *= span;
  lr.seed = config_.seed;
  TypeRegistry registry;
  stream_ = caesar::GenerateLinearRoadStream(lr, &registry);
  ticks_ = SplitTicks(stream_);
  if (ticks_.empty()) return Status::Internal("empty stream");
  return Status::Ok();
}

Status LibraryRun::ComputeReference(Tracer* tracer) {
  EngineOptions options;  // serial, durability off: the reference engine
  options.scheduler = caesar::SchedulerMode::kPinned;
  options.pattern_engine = caesar::PatternEngine::kInterpreted;
  CAESAR_ASSIGN_OR_RETURN(Instance instance, SetUp(options, tracer));
  EventBatch outputs;
  Result<RunStats> run = [&] {
    SpanScope span(tracer, "runtime", "Engine::Run");
    return instance.engine->Run(stream_, &outputs);
  }();
  CAESAR_RETURN_IF_ERROR(run.status());
  reference_ = DigestEvents(outputs, *instance.registry);
  if (config_.corrupt_reference) reference_ ^= 1;
  return Status::Ok();
}

Status LibraryRun::RunPass(Tracer* tracer, Phase* phase) {
  for (int i = 0; i < kExtraSetupsPerPass; ++i) {
    CAESAR_ASSIGN_OR_RETURN(
        Instance instance,
        SetUp(WorkloadOptions(spec_, wal_dir_, tracer != nullptr), tracer));
    setups_.Add(instance);
  }
  RemoveTree(wal_dir_);
  CAESAR_ASSIGN_OR_RETURN(
      Instance instance,
      SetUp(WorkloadOptions(spec_, wal_dir_, tracer != nullptr), tracer));
  setups_.Add(instance);

  EventBatch outputs;
  std::vector<double> tick_ms;
  const double cpu_start = ProcessCpuSeconds();
  const double wall_start = MonoSeconds();
  for (size_t i = 0; i < ticks_.size(); ++i) {
    SpanScope tick_span(tracer, "harness", "tick", next_tick_id_++);
    const double start = MonoSeconds();
    Result<RunStats> run = [&] {
      SpanScope span(tracer, "runtime", "Engine::Run");
      return instance.engine->Run(ticks_[i], &outputs);
    }();
    const double ms = (MonoSeconds() - start) * 1e3;
    ++phase->runs;
    if (!run.ok()) {
      ++phase->failed_runs;
      continue;
    }
    tick_ms.push_back(ms);
    (run.value().checkpoints_written > 0 ? phase->checkpoint_tick_ms
                                         : phase->plain_tick_ms)
        .push_back(ms);
    AddRunStats(run.value(), &phase->sums);
  }
  const double wall_s = MonoSeconds() - wall_start;
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  const double events = static_cast<double>(stream_.size());
  phase->events_per_s.push_back(events / wall_s);
  phase->cpu_us_per_event.push_back(cpu_s / events * 1e6);
  phase->tick_p50_ms.push_back(Quantile(tick_ms, 0.5));
  phase->tick_p99_ms.push_back(Quantile(tick_ms, 0.99));
  phase->run_wall_s +=
      std::accumulate(tick_ms.begin(), tick_ms.end(), 0.0) / 1e3;
  phase->events += static_cast<int64_t>(stream_.size());
  phase->ticks += static_cast<int64_t>(ticks_.size());
  ++phase->passes;

  // Outside the timed loop: statistics and the output check.
  if (tracer != nullptr) {
    caesar::StatisticsReport report = [&] {
      SpanScope span(tracer, "runtime", "CollectStatistics");
      return instance.engine->CollectStatistics();
    }();
    for (const caesar::QueryOperatorStats& row : report.operators) {
      phase->work_units[KindGroup(row.kind)] +=
          static_cast<double>(row.stats.work_units);
    }
    phase->ingest_s.Merge(report.ticks.ingest_seconds);
    phase->gc_pause_s.Merge(report.ticks.gc_pause_seconds);
  }
  phase->partitions = instance.engine->num_partitions();
  if (DigestEvents(outputs, *instance.registry) != reference_) {
    phase->digest_ok = false;
  }
  instance.engine.reset();  // closes the WAL before its directory goes
  RemoveTree(wal_dir_);
  return Status::Ok();
}

Status LibraryRun::RunPhase(double seconds, Tracer* tracer, Phase* phase) {
  const double deadline = MonoSeconds() + seconds;
  do {
    CAESAR_RETURN_IF_ERROR(RunPass(tracer, phase));
  } while (MonoSeconds() < deadline);
  return Status::Ok();
}

WorkloadResult LibraryRun::Run(Tracer* tracer) {
  WorkloadResult result;
  auto fail = [&](const std::string& why) {
    result.correct = false;
    result.failure = why;
    return result;
  };
  // A pool's workers start on the run's one CPU; see OneCpu.
  std::optional<OneCpu> one_cpu;
  if (spec_.threads > 1) one_cpu.emplace();
  Status status = Generate();
  if (status.ok()) status = ComputeReference(tracer);
  Phase untraced;
  Phase traced;
  const double untraced_seconds =
      config_.trace ? config_.seconds / 2 : config_.seconds;
  if (status.ok()) status = RunPhase(untraced_seconds, nullptr, &untraced);
  if (status.ok() && config_.trace) {
    status = RunPhase(config_.seconds / 2, tracer, &traced);
  }
  if (!status.ok()) return fail(status.ToString());

  result.attempted = untraced.runs + traced.runs;
  result.failed = untraced.failed_runs + traced.failed_runs;
  if (!untraced.digest_ok || !traced.digest_ok) {
    return fail("derived events of a per-tick replay differ from the "
                "whole-batch serial reference");
  }
  if (result.failed > 0) return fail("Engine::Run failed");

  std::map<std::string, double>& e2e = result.end_to_end;
  e2e["events_per_s"] = Median(untraced.events_per_s);
  e2e["cpu_us_per_event"] = Median(untraced.cpu_us_per_event);
  e2e["tick_p50_ms"] = Median(untraced.tick_p50_ms);
  e2e["setup_s"] = Median(setups_.setup_s);
  e2e["peak_rss_mb"] = PeakRssMb();
  std::map<std::string, double>& layer = result.per_layer;
  layer["tick_p99_ms"] = Median(untraced.tick_p99_ms);
  if (!config_.trace) return result;

  const RunStats& sums = traced.sums;
  const double events = static_cast<double>(traced.events);
  const double ticks = static_cast<double>(traced.ticks);
  const double passes = static_cast<double>(traced.passes);
  layer["query.model_ms"] = Median(setups_.model_ms);
  layer["optimizer.optimize_ms"] = Median(setups_.optimize_ms);
  layer["runtime.create_ms"] = Median(setups_.create_ms);
  layer["algebra.ops_per_event"] =
      static_cast<double>(sums.ops_executed) / events;
  const double chains =
      static_cast<double>(sums.executed_chains + sums.suspended_chains);
  layer["algebra.suspended_share"] =
      chains == 0 ? 0.0 : static_cast<double>(sums.suspended_chains) / chains;
  layer["algebra.derived_per_event"] =
      static_cast<double>(sums.derived_events) / events;
  for (const auto& [kind, units] : traced.work_units) {
    layer["algebra." + kind + ".work_units_per_event"] = units / events;
  }
  layer["runtime.txn_us_per_event"] = sums.cpu_seconds / events * 1e6;
  layer["runtime.sched_overhead_us_per_tick"] =
      (traced.run_wall_s - sums.cpu_seconds) / ticks * 1e6;
  layer["runtime.ingest_us_per_run"] = traced.ingest_s.mean() * 1e6;
  layer["runtime.gc_pause_ms"] = traced.gc_pause_s.mean() * 1e3;
  layer["runtime.partitions"] = static_cast<double>(traced.partitions);
  if (sums.parallel_ticks > 0) {
    const double pool_ticks = static_cast<double>(sums.parallel_ticks);
    layer["executor.barrier_wait_us_per_tick"] =
        sums.barrier_wait_seconds / pool_ticks * 1e6;
    layer["executor.imbalance_per_tick"] =
        static_cast<double>(sums.shard_imbalance) / pool_ticks;
    layer["executor.tasks_per_tick"] =
        static_cast<double>(sums.parallel_tasks) / pool_ticks;
  }
  layer["executor.steals"] = static_cast<double>(sums.tasks_stolen) / passes;
  layer["durability.wal_bytes_per_event"] =
      static_cast<double>(sums.wal_bytes) / events;
  layer["durability.wal_records"] =
      static_cast<double>(sums.wal_records) / passes;
  layer["durability.checkpoints"] =
      static_cast<double>(sums.checkpoints_written) / passes;
  if (!traced.checkpoint_tick_ms.empty()) {
    layer["durability.checkpoint_ms"] = Median(traced.checkpoint_tick_ms) -
                                        Median(traced.plain_tick_ms);
  }
  layer["harness.self_us_per_event"] =
      tracer->TickSelfMicros("harness") / events;
  layer["runtime.self_us_per_event"] =
      tracer->TickSelfMicros("runtime") / events;
  const double untraced_cpu_us = Median(untraced.cpu_us_per_event);
  const double traced_cpu_us = Median(traced.cpu_us_per_event);
  layer["tracing.overhead_pct"] =
      (traced_cpu_us - untraced_cpu_us) / untraced_cpu_us * 100.0;
  return result;
}

}  // namespace

bool IsLibraryWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

WorkloadResult RunLibraryWorkload(const RunConfig& config, Tracer* tracer) {
  LibraryRun run(*FindSpec(config.workload), config);
  return run.Run(tracer);
}

}  // namespace perfbench
