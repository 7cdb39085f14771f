// Interpreted-vs-compiled pattern engine ablation on the SEQ hot path.
//
// For each SEQ depth 1..max_depth the workload is a chained sequence query
// (SEQ(S0, S1, ..., Sd-1) WITHIN w, consecutive positions joined on x,
// PARTITION BY seg) plus a heavy stream of Noise events no position
// awaits. The interpreted matcher pays O(live partials) for every noise
// event (it scans the partials deque before discovering the type matches
// nothing); the compiled automaton dispatches on type and pays O(1). The
// gap therefore widens with depth — depth 1 compiles to the pass-through
// form where both engines do the same work.
//
// Derived-event counts are checked identical between the engines (the
// automaton is a semantics-preserving rewrite; the full byte-level
// guarantee lives in the differential harness and
// parallel_determinism_test).
//
// --ablation-out writes the per-depth comparison as a self-describing JSON
// object ({benchmark, ablation_schema_version, hardware_threads, rows}).
// tools/check_metrics_schema.py gates it: at depth >= 2 the compiled engine
// must win on CPU time and do less operator work. CI's bench-smoke job runs
// it at the default size (--duration=400 --repetitions=3): a single short
// repetition makes the CPU-time ratio too noisy to gate on.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "harness.h"
#include "query/parser.h"

namespace caesar {
namespace {

// Model text for depth d: types S0..S{d-1} + Noise, one chain query.
std::string ChainModelText(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) {
    text += "TYPE S" + std::to_string(i) + "(seg int, x int);\n";
  }
  text += "TYPE Noise(seg int, x int);\n";
  text += "TYPE Out(seg int, x int);\n";
  text += "CONTEXTS run DEFAULT run;\n";
  text += "PARTITION BY seg;\n";
  text += "QUERY chain\n";
  const std::string last = "a" + std::to_string(depth - 1);
  text += "DERIVE Out(a0.seg AS seg, " + last + ".x AS x)\n";
  if (depth == 1) {
    text += "PATTERN S0 a0\nWHERE a0.x >= 0;\n";
    return text;
  }
  text += "PATTERN SEQ(";
  for (int i = 0; i < depth; ++i) {
    if (i > 0) text += ", ";
    text += "S" + std::to_string(i) + " a" + std::to_string(i);
  }
  text += ") WITHIN 40\nWHERE ";
  // Consecutive positions join on x: each chain cohort matches exactly
  // once, so the match count stays linear in the stream length.
  for (int i = 1; i < depth; ++i) {
    if (i > 1) text += " AND ";
    text += "a" + std::to_string(i) + ".x = a" + std::to_string(i - 1) + ".x";
  }
  text += ";\n";
  return text;
}

// Per tick and segment: one signal event (cycling S0..S{d-1}, x = the
// cohort id t/d so only aligned chains join) and `noise` Noise events.
EventBatch ChainStream(int depth, Timestamp duration, int segments, int noise,
                       const TypeRegistry& registry) {
  std::vector<TypeId> signal_types;
  for (int i = 0; i < depth; ++i) {
    signal_types.push_back(registry.Lookup("S" + std::to_string(i)));
  }
  const TypeId noise_type = registry.Lookup("Noise");
  EventBatch stream;
  for (Timestamp t = 0; t < duration; ++t) {
    for (int seg = 0; seg < segments; ++seg) {
      const int64_t cohort = static_cast<int64_t>(t) / depth;
      stream.push_back(MakeEvent(signal_types[t % depth], t,
                                 {Value(int64_t{seg}), Value(cohort)}));
      for (int n = 0; n < noise; ++n) {
        stream.push_back(MakeEvent(noise_type, t,
                                   {Value(int64_t{seg}), Value(int64_t{n})}));
      }
    }
  }
  return stream;
}

struct AblationRow {
  int depth = 0;
  int64_t derived = 0;
  double interpreted_wall_s = 0.0;
  double compiled_wall_s = 0.0;
  uint64_t interpreted_ops = 0;
  uint64_t compiled_ops = 0;
  double speedup = 0.0;
};

void WriteAblation(const std::string& path,
                   const std::vector<AblationRow>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open --ablation-out file %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\"benchmark\": \"bench_pattern_compile\", "
         "\"ablation_schema_version\": 1, \"hardware_threads\": "
      << std::thread::hardware_concurrency() << ", \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const AblationRow& row = rows[i];
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"depth\": %d, \"derived\": %lld, "
                  "\"interpreted_wall_s\": %.6f, \"compiled_wall_s\": %.6f, "
                  "\"interpreted_ops\": %llu, \"compiled_ops\": %llu, "
                  "\"speedup\": %.4f}%s\n",
                  row.depth, static_cast<long long>(row.derived),
                  row.interpreted_wall_s, row.compiled_wall_s,
                  static_cast<unsigned long long>(row.interpreted_ops),
                  static_cast<unsigned long long>(row.compiled_ops),
                  row.speedup, i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "]}\n";
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  int max_depth = static_cast<int>(flags.Int("max_depth", 4));
  Timestamp duration = flags.Int("duration", 400);
  int segments = static_cast<int>(flags.Int("segments", 8));
  int noise = static_cast<int>(flags.Int("noise", 6));
  int repetitions = static_cast<int>(flags.Int("repetitions", 3));
  std::string metrics_name = flags.Str("metrics", "off");
  std::string metrics_out = flags.Str("metrics-out", "");
  std::string ablation_out = flags.Str("ablation-out", "");
  flags.Validate();

  MetricsGranularity granularity;
  if (!ParseMetricsGranularity(metrics_name, &granularity)) {
    std::fprintf(stderr, "unknown --metrics granularity: %s\n",
                 metrics_name.c_str());
    return 2;
  }
  bench::MetricsSink sink("bench_pattern_compile", metrics_out);

  bench::Banner(
      "Pattern engine ablation: interpreted vs compiled automata",
      "SEQ chain + noise events per depth; compiled dispatch skips the "
      "partial-match scan for types no transition awaits");

  bench::Table table({"depth", "events", "derived", "interp_s", "compiled_s",
                      "interp_ops", "compiled_ops", "speedup"});
  std::vector<AblationRow> rows;
  for (int depth = 1; depth <= max_depth; ++depth) {
    TypeRegistry registry;
    auto model = ParseModel(ChainModelText(depth), &registry);
    CAESAR_CHECK_OK(model.status());
    EventBatch stream =
        ChainStream(depth, duration, segments, noise, registry);

    AblationRow row;
    row.depth = depth;
    RunStats interpreted;
    RunStats compiled;
    for (PatternEngine engine :
         {PatternEngine::kInterpreted, PatternEngine::kCompiled}) {
      EngineOptions options;
      options.metrics = granularity;
      options.pattern_engine = engine;
      StatisticsReport report;
      RunStats stats = bench::RunExperimentWithOptions(
          model.value(), stream, bench::PlanMode::kOptimized, options,
          repetitions, 0.2, sink.enabled() ? &report : nullptr);
      sink.Add("depth=" + std::to_string(depth) +
                   "/engine=" + PatternEngineName(engine),
               report);
      if (engine == PatternEngine::kInterpreted) {
        interpreted = stats;
      } else {
        compiled = stats;
      }
    }
    CAESAR_CHECK_EQ(interpreted.derived_events, compiled.derived_events)
        << "engines diverged at depth " << depth;
    row.derived = compiled.derived_events;
    row.interpreted_wall_s = interpreted.cpu_seconds;
    row.compiled_wall_s = compiled.cpu_seconds;
    row.interpreted_ops = interpreted.ops_executed;
    row.compiled_ops = compiled.ops_executed;
    row.speedup = compiled.cpu_seconds > 0
                      ? interpreted.cpu_seconds / compiled.cpu_seconds
                      : 0.0;
    rows.push_back(row);
    table.Row({bench::FmtInt(depth), bench::FmtInt(interpreted.input_events),
               bench::FmtInt(row.derived), bench::Fmt(row.interpreted_wall_s),
               bench::Fmt(row.compiled_wall_s),
               bench::FmtInt(static_cast<int64_t>(row.interpreted_ops)),
               bench::FmtInt(static_cast<int64_t>(row.compiled_ops)),
               bench::Fmt(row.speedup, 2)});
  }
  sink.Write();
  if (!ablation_out.empty()) WriteAblation(ablation_out, rows);
  return 0;
}

}  // namespace
}  // namespace caesar

int main(int argc, char** argv) { return caesar::Main(argc, argv); }
