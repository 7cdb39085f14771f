// The benchmark's workloads and the metrics they report.
//
// Every workload reports every end-to-end metric of kEndToEnd (tracing
// off) and any subset of kPerLayer; per-layer metrics a workload does not
// exercise print as 0. The traced run prints the per-layer metrics as its
// result; the untraced run prints the ones it has as "#" lines only.
// README.md maps each metric to its layer and to the end-to-end metric it
// should move.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"events_per_s", "1/s"},
    {"cpu_us_per_event", "us"},
    {"tick_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

inline constexpr MetricDef kPerLayer[] = {
    // End-to-end latency, measured with tracing off like the end-to-end
    // metrics, but without a bound: on a shared virtual machine the tails
    // spread several times any usable bound from run to run, and the light
    // tenants exist only on caesard-mixed.
    {"tick_p99_ms", "ms"},
    {"light_tick_p50_ms", "ms"},
    {"light_tick_p99_ms", "ms"},
    // Set-up, per layer (median of the run's set-ups).
    {"query.model_ms", "ms"},
    {"optimizer.optimize_ms", "ms"},
    {"runtime.create_ms", "ms"},
    {"server.register_ms", "ms"},
    // Operators and pattern automata (RunStats, CollectStatistics).
    {"algebra.ops_per_event", "count"},
    {"algebra.suspended_share", "ratio"},
    {"algebra.derived_per_event", "count"},
    {"algebra.pattern.work_units_per_event", "count"},
    {"algebra.aggregate.work_units_per_event", "count"},
    {"algebra.filter.work_units_per_event", "count"},
    {"algebra.projection.work_units_per_event", "count"},
    {"algebra.context.work_units_per_event", "count"},
    // Engine scheduler, ingest, distributor, GC.
    {"runtime.txn_us_per_event", "us"},
    {"runtime.sched_overhead_us_per_tick", "us"},
    {"runtime.ingest_us_per_run", "us"},
    {"runtime.gc_pause_ms", "ms"},
    {"runtime.partitions", "count"},
    // Worker pool.
    {"executor.barrier_wait_us_per_tick", "us"},
    {"executor.imbalance_per_tick", "count"},
    {"executor.tasks_per_tick", "count"},
    {"executor.steals", "count"},
    // WAL and checkpoints (per replay of the stream).
    {"durability.wal_bytes_per_event", "B"},
    {"durability.wal_records", "count"},
    {"durability.checkpoints", "count"},
    {"durability.checkpoint_ms", "ms"},
    // caesard: wire codec, requests, load generator.
    {"server.wire.encode_us_per_event", "us"},
    {"server.wire.decode_us_per_event", "us"},
    {"server.wire.request_bytes_per_event", "B"},
    {"server.heavy_flush_rtt_us_p50", "us"},
    {"server.ingest_rtt_us_p50", "us"},
    {"server.gen_lag_ms_p99", "ms"},
    {"server.rejects", "count"},
    // Self time per layer from the benchmark's spans, over the timed ticks.
    {"harness.self_us_per_event", "us"},
    {"runtime.self_us_per_event", "us"},
    {"server.self_us_per_event", "us"},
    // Traced minus untraced CPU per event, relative to untraced.
    {"tracing.overhead_pct", "%"},
    // Host of the run.
    {"host.nproc", "count"},
    {"host.hw_threads", "count"},
};

// What one workload run reports. A failed output check sets correct to
// false and `failure` to the reason; no metrics are printed then.
struct WorkloadResult {
  bool correct = true;
  std::string failure;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
};

// lr-serial, lr-pool, lr-durable (library.cc). False for another name.
bool IsLibraryWorkload(const std::string& name);
WorkloadResult RunLibraryWorkload(const RunConfig& config, Tracer* tracer);

// caesard-mixed (daemon.cc).
WorkloadResult RunDaemonWorkload(const RunConfig& config, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
