// Parallel scaling of the persistent sharded executor (Section 6 / Fig. 8:
// the runtime is partition-parallel — each road segment owns its context
// vector and plan instance). Two workloads:
//
//  --workload=lr (default): a multi-partition Linear Road stream through
//    the optimized plan at growing worker counts; reports throughput,
//    speedup over serial, and the pool's own metrics.
//
//  --workload=skewed: the deliberately skewed synthetic stream
//    (SyntheticConfig::hot_partition_share — one hot partition carries
//    most of every tick's events and far more SEQ pairing work), run under
//    BOTH scheduler modes at every thread count. This is the scheduler
//    A/B: static pinning leaves the hot partition's worker saturated while
//    the rest idle at the barrier; work stealing spreads the queue. The
//    --skew-out JSON records the comparison, and CI's bench-smoke job
//    gates each run's file with tools/check_metrics_schema.py: the
//    per-tick imbalance and steal counters are the hardware-independent
//    signal — wall-clock speedup from stealing additionally needs real
//    hardware parallelism, so the throughput gate applies only when
//    hardware_threads >= 2 at recording time.
//
// Derived-event counts are checked to be identical across all thread
// counts and scheduler modes (the determinism guarantee).
//
// Speedup depends on the hardware parallelism actually available: on an
// N-core machine the curve should approach min(threads, N, partitions per
// tick); on a single core it stays flat at ~1x.

#include <cstdio>
#include <fstream>
#include <thread>

#include "bench_util.h"
#include "harness.h"
#include "workloads/linear_road.h"
#include "workloads/synthetic.h"

namespace caesar {
namespace {

// One measured (mode, threads) point of the skewed-workload comparison.
struct SkewRow {
  const char* mode;
  int threads;
  RunStats stats;
};

void WriteSkewJson(const std::string& path, double hot_share, int partitions,
                   Timestamp duration, const std::vector<SkewRow>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open --skew-out file %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\"benchmark\":\"bench_parallel_scaling\",\"skew_schema_version\":1"
      << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"hot_share\":" << hot_share << ",\"partitions\":" << partitions
      << ",\"duration\":" << duration << ",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const RunStats& s = rows[i].stats;
    double events_per_s =
        s.cpu_seconds > 0
            ? static_cast<double>(s.input_events) / s.cpu_seconds
            : 0.0;
    if (i > 0) out << ",";
    out << "{\"mode\":\"" << rows[i].mode << "\",\"threads\":"
        << rows[i].threads << ",\"wall_s\":" << s.cpu_seconds
        << ",\"events_per_s\":" << events_per_s << ",\"events\":"
        << s.input_events << ",\"derived\":" << s.derived_events
        << ",\"ticks\":" << s.parallel_ticks << ",\"tasks\":"
        << s.parallel_tasks << ",\"imbalance\":" << s.shard_imbalance
        << ",\"steals\":" << s.tasks_stolen << "}";
  }
  out << "]}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed writing --skew-out file %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("skew comparison written to %s (%zu rows)\n", path.c_str(),
              rows.size());
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  std::string workload = flags.Str("workload", "lr");
  int roads = static_cast<int>(flags.Int("roads", 4));
  int segments = static_cast<int>(flags.Int("segments", 12));
  Timestamp duration = flags.Int("duration", 600);
  int replicas = static_cast<int>(flags.Int("replicas", 3));
  int max_threads = static_cast<int>(flags.Int("max_threads", 8));
  int repetitions = static_cast<int>(flags.Int("repetitions", 2));
  double accel = flags.Double("accel", 1000.0);
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  int partitions = static_cast<int>(flags.Int("partitions", 16));
  int events_per_tick = static_cast<int>(flags.Int("events-per-tick", 4));
  double hot_share = flags.Double("hot-share", 0.9);
  std::string skew_out = flags.Str("skew-out", "");
  std::string metrics_name = flags.Str("metrics", "off");
  std::string metrics_out = flags.Str("metrics-out", "");
  flags.Validate();

  // --metrics=off|engine|operator: telemetry granularity of the measured
  // engines, for quantifying the observability overhead (run off vs
  // operator and compare wall_s).
  MetricsGranularity granularity;
  if (!ParseMetricsGranularity(metrics_name, &granularity)) {
    std::fprintf(stderr, "unknown --metrics granularity: %s\n",
                 metrics_name.c_str());
    return 2;
  }
  bench::MetricsSink sink("bench_parallel_scaling", metrics_out);

  if (workload == "skewed") {
    bench::Banner(
        "Parallel scaling under partition skew: pinned vs stealing",
        "Section 6/Fig. 8 + Fig. 10a's hot segments: one partition owns "
        "most of the per-tick work; the scheduler A/B shows what work "
        "stealing buys back");
    std::printf("hardware threads: %u, partitions: %d (hot share %.2f)\n\n",
                std::thread::hardware_concurrency(), partitions, hot_share);

    SyntheticConfig config;
    config.duration = duration;
    config.num_partitions = partitions;
    config.events_per_tick = events_per_tick;
    config.hot_partition_share = hot_share;
    config.seed = seed;
    // One window spanning the run: the workload queries stay active, so
    // every tick carries the hot partition's full SEQ pairing cost. A
    // short `within` keeps the quadratic pairing cost bounded while still
    // concentrating work on the hot partition.
    config.windows = {{1, duration + 1}};
    config.assignment = SyntheticConfig::QueryAssignment::kAllWindows;
    config.queries_per_window = 2;
    config.query_within = 10;
    TypeRegistry registry;
    EventBatch stream = GenerateSyntheticStream(config, &registry);
    auto model = MakeSyntheticModel(config, &registry);
    CAESAR_CHECK_OK(model.status());

    bench::Table table({"mode", "threads", "wall_s", "events_per_s",
                        "speedup", "imb_per_tick", "steals", "derived"});
    std::vector<SkewRow> rows;
    double serial_seconds = 0.0;
    int64_t serial_derived = -1;
    for (int threads = 1; threads <= max_threads; threads *= 2) {
      for (SchedulerMode mode :
           {SchedulerMode::kPinned, SchedulerMode::kStealing}) {
        // A 1-thread engine has no pool; measure it once as the serial
        // baseline instead of twice under two names.
        if (threads == 1 && mode == SchedulerMode::kStealing) continue;
        const char* mode_name =
            threads == 1 ? "serial" : SchedulerModeName(mode);
        EngineOptions options;
        options.accel = accel;
        options.num_threads = threads;
        options.scheduler = mode;
        options.metrics = granularity;
        StatisticsReport report;
        RunStats stats = bench::RunExperimentWithOptions(
            model.value(), stream, bench::PlanMode::kOptimized, options,
            repetitions, 0.2, sink.enabled() ? &report : nullptr);
        sink.Add(std::string(mode_name) + " threads=" +
                     std::to_string(threads),
                 report);
        if (serial_derived < 0) {
          serial_seconds = stats.cpu_seconds;
          serial_derived = stats.derived_events;
        } else {
          // Determinism guarantee: neither the thread count nor the
          // scheduler mode may change results.
          CAESAR_CHECK_EQ(stats.derived_events, serial_derived)
              << mode_name << " run diverged from serial at " << threads
              << " threads";
        }
        double events_per_s =
            stats.cpu_seconds > 0
                ? static_cast<double>(stats.input_events) / stats.cpu_seconds
                : 0.0;
        double speedup =
            stats.cpu_seconds > 0 ? serial_seconds / stats.cpu_seconds : 0.0;
        double imb_per_tick =
            stats.parallel_ticks > 0
                ? static_cast<double>(stats.shard_imbalance) /
                      static_cast<double>(stats.parallel_ticks)
                : 0.0;
        table.Row({mode_name, bench::FmtInt(threads),
                   bench::Fmt(stats.cpu_seconds), bench::Fmt(events_per_s, 0),
                   bench::Fmt(speedup, 2), bench::Fmt(imb_per_tick, 1),
                   bench::FmtInt(stats.tasks_stolen),
                   bench::FmtInt(stats.derived_events)});
        rows.push_back({mode_name, threads, stats});
      }
    }
    if (!skew_out.empty()) {
      WriteSkewJson(skew_out, hot_share, partitions, duration, rows);
    }
    sink.Write();
    return 0;
  }
  if (workload != "lr") {
    std::fprintf(stderr, "unknown --workload: %s (want lr|skewed)\n",
                 workload.c_str());
    return 2;
  }

  bench::Banner(
      "Parallel scaling: persistent sharded executor",
      "Section 6/Fig. 8: partition-parallel runtime; throughput over worker "
      "count on a multi-partition Linear Road run");
  std::printf("hardware threads: %u, partitions: %d roads x %d segments x 2 "
              "directions\n\n",
              std::thread::hardware_concurrency(), roads, segments);

  LinearRoadConfig config;
  config.num_xways = roads;
  config.num_segments = segments;
  config.duration = duration;
  config.seed = seed;
  TypeRegistry registry;
  EventBatch stream = GenerateLinearRoadStream(config, &registry);
  LinearRoadModelConfig model_config;
  model_config.processing_replicas = replicas;
  auto model = MakeLinearRoadModel(model_config, &registry);
  CAESAR_CHECK_OK(model.status());

  bench::Table table({"threads", "events", "derived", "wall_s", "events_per_s",
                      "speedup", "pool_ticks", "imbalance", "barrier_s"});
  double serial_seconds = 0.0;
  int64_t serial_derived = 0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    EngineOptions options;
    options.accel = accel;
    options.num_threads = threads;
    options.metrics = granularity;
    StatisticsReport report;
    RunStats stats = bench::RunExperimentWithOptions(
        model.value(), stream, bench::PlanMode::kOptimized, options,
        repetitions, 0.2, sink.enabled() ? &report : nullptr);
    sink.Add("threads=" + std::to_string(threads), report);
    if (threads == 1) {
      serial_seconds = stats.cpu_seconds;
      serial_derived = stats.derived_events;
    } else {
      // Determinism guarantee: the parallel merge must not change results.
      CAESAR_CHECK_EQ(stats.derived_events, serial_derived)
          << "parallel run diverged from serial at " << threads << " threads";
    }
    double throughput =
        stats.cpu_seconds > 0
            ? static_cast<double>(stats.input_events) / stats.cpu_seconds
            : 0.0;
    double speedup =
        stats.cpu_seconds > 0 ? serial_seconds / stats.cpu_seconds : 0.0;
    table.Row({bench::FmtInt(threads), bench::FmtInt(stats.input_events),
               bench::FmtInt(stats.derived_events),
               bench::Fmt(stats.cpu_seconds), bench::Fmt(throughput, 0),
               bench::Fmt(speedup, 2), bench::FmtInt(stats.parallel_ticks),
               bench::FmtInt(stats.shard_imbalance),
               bench::Fmt(stats.barrier_wait_seconds)});
  }
  sink.Write();
  return 0;
}

}  // namespace
}  // namespace caesar

int main(int argc, char** argv) { return caesar::Main(argc, argv); }
