// perfbench: the CAESAR repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE] [--tiny]
//             [--corrupt-reference]
//
// Runs one workload (lr-serial, lr-pool, lr-durable, caesard-mixed) and
// prints "# name = value unit" lines, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones (tracing off); with --trace 1 they are
// the per-layer ones, from a run that also times an untraced half to report
// the tracing overhead. A failed output check prints "correct": false with
// no metrics and exits 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload lr-serial|lr-pool|lr-durable|"
               "caesard-mixed --seed N --seconds S --trace 0|1\n"
               "                 [--work-dir DIR] [--trace-out FILE] [--tiny] "
               "[--corrupt-reference]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunConfig* config, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      config->tiny = true;
      continue;
    }
    if (flag == "--corrupt-reference") {
      config->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    bool valid = true;
    if (flag == "--workload") {
      config->workload = value;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      valid = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      valid = !value.empty() && *end == '\0' && config->seconds > 0;
    } else if (flag == "--trace") {
      valid = value == "0" || value == "1";
      config->trace = value == "1";
    } else if (flag == "--work-dir") {
      config->work_dir = value;
    } else if (flag == "--trace-out") {
      config->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (!valid) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (config->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

// Emits the metrics of `defs` found in `values` (0 for absent ones when
// `absent_is_zero`), as "# name = value unit" lines and into `json`.
// False if a required metric is missing or a value is not finite.
bool EmitMetrics(const MetricDef* defs, size_t count,
                 const std::map<std::string, double>& values,
                 bool absent_is_zero, std::string* json) {
  char buffer[256];
  bool ok = true;
  for (size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end() && !absent_is_zero) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   defs[i].name);
      ok = false;
      continue;
    }
    const double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   defs[i].name);
      ok = false;
      continue;
    }
    std::printf("# %s = %.6g %s\n", defs[i].name, value, defs[i].unit);
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json->empty() ? "" : ", ", defs[i].name, value,
                  defs[i].unit);
    *json += buffer;
  }
  return ok;
}

// The unit of a declared metric; null for an undeclared name.
const char* UnitOf(const MetricDef* defs, size_t count,
                   const std::string& name) {
  for (size_t i = 0; i < count; ++i) {
    if (name == defs[i].name) return defs[i].unit;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string error;
  if (!ParseArgs(argc, argv, &config, &error)) return Usage(error.c_str());
  if (!IsLibraryWorkload(config.workload) &&
      config.workload != "caesard-mixed") {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  std::unique_ptr<Tracer> tracer;
  if (config.trace) tracer = std::make_unique<Tracer>();
  WorkloadResult result = IsLibraryWorkload(config.workload)
                              ? RunLibraryWorkload(config, tracer.get())
                              : RunDaemonWorkload(config, tracer.get());

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "hw_threads=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, AllowedCpus(), HardwareThreads());
  const double error_rate =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::printf("# error_rate = %.6g (failed %lld of %lld attempted)\n",
              error_rate, static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));

  std::string metrics;
  bool ok = result.correct;
  if (ok) {
    for (const auto& [name, value] : result.end_to_end) {
      if (!UnitOf(std::data(kEndToEnd), std::size(kEndToEnd), name)) {
        std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
        ok = false;
      }
    }
    for (const auto& [name, value] : result.per_layer) {
      if (!UnitOf(std::data(kPerLayer), std::size(kPerLayer), name)) {
        std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
        ok = false;
      }
    }
  }
  if (ok && config.trace) {
    result.per_layer["host.nproc"] = AllowedCpus();
    result.per_layer["host.hw_threads"] = HardwareThreads();
    ok = EmitMetrics(std::data(kPerLayer), std::size(kPerLayer),
                     result.per_layer, /*absent_is_zero=*/true, &metrics);
    if (!config.trace_out.empty() &&
        !tracer->WriteChromeJson(config.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   config.trace_out.c_str());
      ok = false;
    }
  } else if (ok) {
    ok = EmitMetrics(std::data(kEndToEnd), std::size(kEndToEnd),
                     result.end_to_end, /*absent_is_zero=*/false, &metrics);
    for (const auto& [name, value] : result.per_layer) {
      std::printf("# %s = %.6g %s (per-layer list, no bound)\n",
                  name.c_str(), value,
                  UnitOf(std::data(kPerLayer), std::size(kPerLayer), name));
    }
  }
  if (!result.correct) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 result.failure.c_str());
  }
  if (!ok) metrics.clear();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
