// Shared pieces of the CAESAR benchmark: run settings, metric records,
// process-level measurements (clock, CPU, RSS, host), order statistics,
// an output digest, and the benchmark's own span tracer.
//
// The tracer records spans only around calls into the library's public
// API, from the benchmark's side of the call. Each span has a name, the
// layer it is charged to, a start, an end, a parent, and the id of the
// tick it belongs to (-1 outside the timed replay). Self time (duration
// minus the time covered by child spans) is computed when a span closes.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Settings of one benchmark run, from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs, for the self-test.
  bool tiny = false;
  // Flips the reference digest, for the self-test of the output check.
  bool corrupt_reference = false;
  // Directory the run may create temporary files in (WAL segments).
  std::string work_dir = ".";
  // Where the traced run writes its Chrome trace (empty: not written).
  std::string trace_out;
};

// Steady-clock seconds since an arbitrary fixed point.
double MonoSeconds();
// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
// ru_maxrss of the process, in MiB.
double PeakRssMb();
// CPUs this process may run on, and hardware threads of the machine.
int AllowedCpus();
int HardwareThreads();

// Confines the calling thread, and every thread it starts while the object
// lives, to the last CPU the process may use; restores the thread's CPU set
// on destruction. Threads on one CPU wake each other without a cross-CPU
// interrupt, which on a virtual machine costs an exit whose price depends
// on the host's load.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();

  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// q-quantile (0 <= q <= 1) with linear interpolation; 0 for no samples.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// FNV-1a, chained: Digest(Digest(kDigestBasis, a), b).
inline constexpr uint64_t kDigestBasis = 1469598103934665603ull;
uint64_t Digest(uint64_t hash, std::string_view bytes);

// Removes a directory tree; missing is fine.
void RemoveTree(const std::string& path);

struct Span {
  const char* name;
  const char* layer;
  int64_t id;
  int64_t parent;  // 0 = root
  int64_t tick;    // -1 outside the timed replay
  int64_t start_ns;
  int64_t end_ns;
  int64_t self_ns;
  int tid;
};

// In-memory span store. Spans are opened through SpanScope; each thread
// keeps its own stack of open spans, so nesting follows the call stack.
class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Sum of self time of the spans charged to `layer` that belong to a tick
  // (the timed replay), in microseconds.
  double TickSelfMicros(std::string_view layer) const;

  // {"traceEvents":[...]}: one complete ("X") event per span, with the
  // span id, parent and tick id in "args". False if the file can't be
  // written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  friend class SpanScope;

  int64_t NowNs() const;
  void Add(const Span& span);

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<int64_t> next_id_{1};
  std::atomic<int> next_tid_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span. A null tracer makes the scope a no-op, so call sites need
// no branching between the untraced and the traced phase. `tick` < 0
// inherits the enclosing span's tick id.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* layer, const char* name,
            int64_t tick = -1);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
