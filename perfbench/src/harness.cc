#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

namespace perfbench {

double MonoSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return HardwareThreads();
  return CPU_COUNT(&set);
}

int HardwareThreads() {
  return static_cast<int>(std::thread::hardware_concurrency());
}

OneCpu::OneCpu() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) last = cpu;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

OneCpu::~OneCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t Digest(uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

void RemoveTree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

namespace {

struct OpenSpan {
  const char* name;
  const char* layer;
  int64_t id;
  int64_t tick;
  int64_t start_ns;
  int64_t child_ns;
};

thread_local std::vector<OpenSpan> t_open;
thread_local int t_tid = 0;

void AppendJsonString(std::string* out, const char* s) {
  out->push_back('"');
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out->push_back('\\');
    out->push_back(*s);
  }
  out->push_back('"');
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

double Tracer::TickSelfMicros(std::string_view layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.tick >= 0 && layer == span.layer) ns += span.self_ns;
  }
  return static_cast<double>(ns) / 1e3;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buffer[256];
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, span.name);
    out += ",\"cat\":";
    AppendJsonString(&out, span.layer);
    std::snprintf(buffer, sizeof(buffer),
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"id\":%lld,\"parent\":%lld,"
                  "\"tick\":%lld,\"self_us\":%.3f}}",
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  span.tid, static_cast<long long>(span.id),
                  static_cast<long long>(span.parent),
                  static_cast<long long>(span.tick),
                  static_cast<double>(span.self_ns) / 1e3);
    out += buffer;
  }
  out += "]}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool written = std::fwrite(out.data(), 1, out.size(), file) ==
                       out.size();
  return std::fclose(file) == 0 && written;
}

SpanScope::SpanScope(Tracer* tracer, const char* layer, const char* name,
                     int64_t tick)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  if (tick < 0 && !t_open.empty()) tick = t_open.back().tick;
  t_open.push_back({name, layer, tracer_->next_id_.fetch_add(1), tick,
                    tracer_->NowNs(), 0});
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  const int64_t end_ns = tracer_->NowNs();
  const OpenSpan open = t_open.back();
  t_open.pop_back();
  const int64_t duration = end_ns - open.start_ns;
  int64_t parent = 0;
  if (!t_open.empty()) {
    t_open.back().child_ns += duration;
    parent = t_open.back().id;
  }
  if (t_tid == 0) t_tid = tracer_->next_tid_.fetch_add(1);
  tracer_->Add({open.name, open.layer, open.id, parent, open.tick,
                open.start_ns, end_ns, duration - open.child_ns, t_tid});
}

}  // namespace perfbench
