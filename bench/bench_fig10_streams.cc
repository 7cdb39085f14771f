// Reproduces Fig. 10 of the paper: characterization of the Linear Road
// event streams.
//   (a) events per road segment — processed position reports and derived
//       zero-toll / toll / accident-warning events vary across segments;
//   (b) events per minute for one unidirectional road segment — the input
//       rate ramps up over the run, accident warnings appear only during
//       the accident episode, real toll only during congestion, zero toll
//       otherwise.

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "optimizer/optimizer.h"
#include "runtime/engine.h"
#include "workloads/linear_road.h"

namespace caesar {
namespace {

using bench::Fmt;
using bench::FmtInt;

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  LinearRoadConfig config;
  config.num_xways = static_cast<int>(flags.Int("xways", 1));
  config.num_segments = static_cast<int>(flags.Int("segments", 20));
  config.duration = flags.Int("duration", 3600);
  config.accident_episodes_per_segment =
      flags.Double("accident_rate", 0.5);
  config.seed = static_cast<uint64_t>(flags.Int("seed", 42));
  std::string metrics_out = flags.Str("metrics-out", "");
  flags.Validate();
  bench::MetricsSink sink("bench_fig10_streams", metrics_out);

  bench::Banner("Linear Road event streams",
                "Fig. 10(a) events per road segment; Fig. 10(b) events per "
                "minute (paper: 100 segments / 180 min; scaled by flags)");

  TypeRegistry registry;
  EventBatch stream = GenerateLinearRoadStream(config, &registry);
  auto model = MakeLinearRoadModel(LinearRoadModelConfig(), &registry);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 1;
  }
  auto plan = OptimizeModel(model.value(), OptimizerOptions());
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  EngineOptions engine_options;
  if (sink.enabled()) {
    engine_options.metrics = MetricsGranularity::kOperator;
  }
  Engine engine(std::move(plan).value(), engine_options);

  // Per-segment and per-minute tallies. Derived types carry a "seg"
  // attribute; position reports are tallied from the input.
  struct Counts {
    int64_t reports = 0;
    int64_t zero_toll = 0;
    int64_t toll = 0;
    int64_t warnings = 0;
  };
  std::map<int64_t, Counts> per_segment;
  std::map<int64_t, Counts> per_minute;  // for segment `focus`

  // Focus on the segment with the most accidents: tally after the run.
  EventBatch outputs;
  RunStats stats = engine.Run(stream, &outputs).value();

  auto attr = [&](const EventPtr& event, const char* name) -> int64_t {
    const Schema& schema = registry.type(event->type_id()).schema;
    int index = schema.IndexOf(name);
    return index < 0 ? -1 : event->value(index).AsInt();
  };

  // Pick the focus segment: most accident warnings (dir 0).
  std::map<int64_t, int64_t> warnings_per_segment;
  for (const EventPtr& event : outputs) {
    if (registry.type(event->type_id()).name == "AccidentWarning") {
      warnings_per_segment[attr(event, "seg")] += 1;
    }
  }
  int64_t focus = warnings_per_segment.empty()
                      ? 0
                      : std::max_element(warnings_per_segment.begin(),
                                         warnings_per_segment.end(),
                                         [](const auto& a, const auto& b) {
                                           return a.second < b.second;
                                         })
                            ->first;

  for (const EventPtr& event : stream) {
    int64_t seg = attr(event, "seg");
    per_segment[seg].reports += 1;
    if (seg == focus) per_minute[event->time() / 60].reports += 1;
  }
  for (const EventPtr& event : outputs) {
    const std::string& type = registry.type(event->type_id()).name;
    int64_t seg = attr(event, "seg");
    Counts* by_seg = &per_segment[seg];
    Counts* by_min =
        seg == focus ? &per_minute[event->time() / 60] : nullptr;
    auto bump = [&](int64_t Counts::*field) {
      (*by_seg).*field += 1;
      if (by_min != nullptr) (*by_min).*field += 1;
    };
    if (type == "ZeroToll") bump(&Counts::zero_toll);
    if (type == "TollNotification") bump(&Counts::toll);
    if (type == "AccidentWarning") bump(&Counts::warnings);
  }

  std::printf("--- Fig. 10(a): events per road segment ---\n");
  bench::Table table_a(
      {"segment", "pos_reports", "zero_toll", "real_toll", "warnings"});
  for (const auto& [seg, counts] : per_segment) {
    table_a.Row({FmtInt(seg), FmtInt(counts.reports),
                 FmtInt(counts.zero_toll), FmtInt(counts.toll),
                 FmtInt(counts.warnings)});
  }

  std::printf("\n--- Fig. 10(b): events per minute, segment %lld ---\n",
              static_cast<long long>(focus));
  bench::Table table_b(
      {"minute", "pos_reports", "zero_toll", "real_toll", "warnings"});
  for (const auto& [minute, counts] : per_minute) {
    table_b.Row({FmtInt(minute), FmtInt(counts.reports),
                 FmtInt(counts.zero_toll), FmtInt(counts.toll),
                 FmtInt(counts.warnings)});
  }

  std::printf("\nrun summary: %s\n", stats.ToString().c_str());
  if (sink.enabled()) sink.Add("stream", engine.CollectStatistics());
  sink.Write();
  return 0;
}

}  // namespace
}  // namespace caesar

int main(int argc, char** argv) { return caesar::Main(argc, argv); }
