// Allocation accounting of the engine's transaction path. A binary of its
// own because it replaces the global operator new with a counting one.
//
// The contract (DESIGN.md §6): once the per-tick and per-worker scratch has
// grown to the stream's shape, a tick allocates nothing for distribution,
// dispatch, suspended queries, or running queries that derive nothing. Only
// derived events allocate, and the models below derive none, so a
// steady-state Run allocates the same whatever the number of queries or
// ticks it covers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/logging.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  std::size_t alignment = std::max(static_cast<std::size_t>(align),
                                   sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace caesar {
namespace {

constexpr int64_t kSegments = 8;

// `num_queries` processing queries gated on `context`. `high` never
// activates (the only switch needs a value no reading reaches), so its
// queries are suspended; `normal` stays active, so its queries run, and
// their window passes every reading to a pattern whose predicate
// (value > 1000 + q) rejects it.
std::string GatedModel(int num_queries, const std::string& context) {
  std::string text =
      "CONTEXTS normal, high DEFAULT normal;\n"
      "PARTITION BY seg;\n"
      "QUERY go_high SWITCH CONTEXT high PATTERN Reading r "
      "WHERE r.value > 1000 CONTEXT normal;\n";
  for (int q = 0; q < num_queries; ++q) {
    const std::string n = std::to_string(q);
    text += "QUERY alert" + n + " DERIVE Alert" + n +
            "(r.seg AS seg, r.value AS value) PATTERN Reading r WHERE "
            "r.value > " +
            std::to_string(1000 + q) + " CONTEXT " + context + ";\n";
  }
  return text;
}

// gtest names each case after the parameter's bytes. Implicit padding after
// `metrics` would hold whatever the stack held, a different name each run;
// the explicit zero bytes keep the names fixed.
struct Leg {
  Leg(MetricsGranularity m, int threads) : metrics(m), num_threads(threads) {}
  MetricsGranularity metrics;
  int8_t zero_[3] = {};
  int num_threads;
};
static_assert(sizeof(Leg) == 8, "Leg must have no implicit padding");

// Allocations of one steady-state Run over `num_ticks` ticks of kSegments
// partitions, after a warm-up Run of the same shape.
int64_t AllocationsPerRun(int num_queries, Timestamp num_ticks, Leg leg,
                          const std::string& context = "high") {
  TypeRegistry registry;
  TypeId reading = registry.RegisterOrGet("Reading", {{"seg", ValueType::kInt},
                                                      {"value",
                                                       ValueType::kInt}});
  auto model = ParseModel(GatedModel(num_queries, context), &registry);
  CAESAR_CHECK_OK(model.status());
  auto plan = TranslateModel(model.value(), PlanOptions());
  CAESAR_CHECK_OK(plan.status());
  EngineOptions options;
  options.metrics = leg.metrics;
  options.num_threads = leg.num_threads;
  Engine engine(std::move(plan).value(), options);

  auto stream = [&](Timestamp first) {
    EventBatch input;
    for (Timestamp t = first; t < first + num_ticks; ++t) {
      for (int64_t seg = 1; seg <= kSegments; ++seg) {
        input.push_back(
            MakeEvent(reading, t, {Value(seg), Value(seg * 7 + t % 5)}));
      }
    }
    return input;
  };
  EventBatch warm_up = stream(0);
  EventBatch measured = stream(num_ticks);
  CAESAR_CHECK_OK(engine.Run(warm_up).status());

  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  Result<RunStats> stats = engine.Run(measured);
  const int64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  CAESAR_CHECK_OK(stats.status());
  EXPECT_EQ(stats.value().derived_events, 0);
  EXPECT_EQ(stats.value().suspended_chains,
            context == "high" ? num_queries * num_ticks * kSegments : 0);
  return allocations;
}

class EngineAllocTest : public ::testing::TestWithParam<Leg> {};

TEST_P(EngineAllocTest, SuspendedQueriesAllocateNothing) {
  const int64_t few = AllocationsPerRun(4, 16, GetParam());
  const int64_t many = AllocationsPerRun(32, 16, GetParam());
  EXPECT_EQ(few, many) << "allocations per suspended query transaction: "
                       << static_cast<double>(many - few) / (28 * 16 * 8);
}

TEST_P(EngineAllocTest, RunningQueriesThatDeriveNothingAllocateNothing) {
  const int64_t few = AllocationsPerRun(4, 16, GetParam(), "normal");
  const int64_t many = AllocationsPerRun(32, 16, GetParam(), "normal");
  EXPECT_EQ(few, many) << "allocations per running query transaction: "
                       << static_cast<double>(many - few) / (28 * 16 * 8);
}

TEST_P(EngineAllocTest, SteadyStateTicksAllocateNothing) {
  const int64_t short_run = AllocationsPerRun(4, 8, GetParam());
  const int64_t long_run = AllocationsPerRun(4, 32, GetParam());
  EXPECT_EQ(short_run, long_run) << "allocations per tick: "
                                 << static_cast<double>(long_run - short_run) /
                                        24;
}

INSTANTIATE_TEST_SUITE_P(
    Legs, EngineAllocTest,
    ::testing::Values(Leg{MetricsGranularity::kOff, 1},
                      Leg{MetricsGranularity::kOperator, 1},
                      Leg{MetricsGranularity::kOff, 2}),
    [](const ::testing::TestParamInfo<Leg>& info) {
      return std::string(info.param.metrics == MetricsGranularity::kOff
                             ? "Off"
                             : "Operator") +
             "Threads" + std::to_string(info.param.num_threads);
    });

}  // namespace
}  // namespace caesar
