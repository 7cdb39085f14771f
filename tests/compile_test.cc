// Tests for src/compile: the pattern-to-automaton compiler and the
// automaton-backed pattern operator.
//
// The compile corpus (tests/compile_corpus/*.caesar) pins the compiler's
// deterministic dump byte-for-byte, one fixture per pattern shape: SEQ
// depth 1 (pass-through) through 4, a 17-position SEQ, interior and
// leading negation, the default WITHIN, and a consumer chain over a
// derived type. Goldens are
// regenerable with `caesar_lint --dump-automaton <fixture>`. Operator
// semantics are pinned differentially against the interpreted PatternOp —
// the two must render byte-identically on the same input.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/pattern_op.h"
#include "compile/automaton.h"
#include "compile/compiled_pattern_op.h"
#include "compile/compiler.h"
#include "expr/compiled.h"
#include "expr/parser.h"
#include "oracle/differential.h"
#include "oracle/oracle.h"
#include "plan/translator.h"
#include "query/model.h"
#include "query/parser.h"
#include "runtime/context_vector.h"
#include "runtime/engine.h"

namespace caesar {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Mirrors `caesar_lint --dump-automaton`: strict parse, translate with
// default options, dump every pattern query's automaton.
std::string DumpFixture(const std::filesystem::path& path,
                        const PatternCompileOptions& compile_options = {}) {
  TypeRegistry registry;
  ParseModelOptions parse_options;
  parse_options.source_name = path.filename().string();
  auto model = ParseModel(ReadFile(path), &registry, parse_options);
  EXPECT_TRUE(model.ok()) << model.status();
  if (!model.ok()) return "<parse error>";
  auto dumped =
      DumpModelAutomatons(model.value(), PlanOptions{}, compile_options);
  EXPECT_TRUE(dumped.ok()) << dumped.status();
  return dumped.ok() ? dumped.value() : "<dump error>";
}

TEST(CompileCorpusTest, FixturesMatchGoldens) {
  const std::filesystem::path dir =
      std::filesystem::path(CAESAR_TEST_SRCDIR) / "compile_corpus";
  int fixtures = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".caesar") continue;
    ++fixtures;
    std::filesystem::path golden = entry.path();
    golden.replace_extension(".expected");
    EXPECT_EQ(DumpFixture(entry.path()), ReadFile(golden))
        << "fixture " << entry.path().filename()
        << " drifted; regenerate with tools/caesar_lint --dump-automaton";
  }
  EXPECT_GE(fixtures, 11) << "compile corpus went missing";
}

TEST(CompileCorpusTest, NoAbsintGoldensMatchWithPassDisabled) {
  // Paired goldens: every *.noabsint.expected pins the same fixture's
  // dump with the abstract-interpretation pass switched off — the
  // documented "off switch is byte-identical to a compiler without the
  // pass" contract.
  const std::filesystem::path dir =
      std::filesystem::path(CAESAR_TEST_SRCDIR) / "compile_corpus";
  int paired = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const std::string suffix = ".noabsint.expected";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    ++paired;
    std::filesystem::path fixture = dir / name;
    fixture.replace_extension().replace_extension(".caesar");
    PatternCompileOptions off;
    off.absint = false;
    EXPECT_EQ(DumpFixture(fixture, off), ReadFile(entry.path()))
        << "fixture " << fixture.filename()
        << " drifted; regenerate with tools/caesar_lint --dump-automaton "
           "--no-absint";
  }
  EXPECT_GE(paired, 3) << "no-absint goldens went missing";
}

TEST(CompileCorpusTest, DumpIsDeterministic) {
  const std::filesystem::path dir =
      std::filesystem::path(CAESAR_TEST_SRCDIR) / "compile_corpus";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".caesar") continue;
    EXPECT_EQ(DumpFixture(entry.path()), DumpFixture(entry.path()))
        << entry.path().filename();
  }
}

// ---- Compiler unit tests ---------------------------------------------

class CompileTest : public ::testing::Test {
 protected:
  CompileTest() : contexts_(4, 0) {
    a_type_ = registry_.RegisterOrGet("A", {{"x", ValueType::kInt}});
    b_type_ = registry_.RegisterOrGet("B", {{"x", ValueType::kInt}});
    out_type_ = registry_.RegisterOrGet(
        "AB", {{"a.x", ValueType::kInt}, {"b.x", ValueType::kInt}});
    ctx_.contexts = &contexts_;
    ctx_.registry = &registry_;
    ctx_.ops_counter = &ops_;
  }

  EventPtr MakeA(int64_t x, Timestamp t) {
    return MakeEvent(a_type_, t, {Value(x)});
  }
  EventPtr MakeB(int64_t x, Timestamp t) {
    return MakeEvent(b_type_, t, {Value(x)});
  }

  // Compiles `text` against bindings (a: A, b: B) in slot order.
  std::shared_ptr<const CompiledExpr> Predicate(const std::string& text) {
    BindingSet bindings;
    bindings.Add({"a", a_type_, &registry_.type(a_type_).schema});
    bindings.Add({"b", b_type_, &registry_.type(b_type_).schema});
    auto expr = ParseExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status();
    auto compiled = Compile(expr.value(), bindings);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
    return std::shared_ptr<const CompiledExpr>(std::move(compiled).value());
  }

  // SEQ(A a, B b) WITHIN `within` with `predicates` on the B position.
  std::shared_ptr<const PatternOpConfig> SeqABConfig(
      Timestamp within,
      std::vector<std::shared_ptr<const CompiledExpr>> predicates = {}) {
    auto config = std::make_shared<PatternOpConfig>();
    config->positions.resize(2);
    config->positions[0].type_id = a_type_;
    config->positions[1].type_id = b_type_;
    config->positions[1].predicates = std::move(predicates);
    config->output_type = out_type_;
    config->within = within;
    config->description = "SEQ(A a, B b)";
    return config;
  }

  std::string Render(const EventBatch& batch) {
    std::string out;
    for (const EventPtr& event : batch) {
      out += event->ToString(registry_) + "\n";
    }
    return out;
  }

  TypeRegistry registry_;
  TypeId a_type_ = kInvalidTypeId;
  TypeId b_type_ = kInvalidTypeId;
  TypeId out_type_ = kInvalidTypeId;
  ContextBitVector contexts_;
  uint64_t ops_ = 0;
  OpExecContext ctx_;
};

TEST_F(CompileTest, WidePatternCompilesEveryPosition) {
  // No width cap: a 17-position SEQ alternating A/B is one transition per
  // position, and the dispatch table covers every non-initial state.
  auto config = std::make_shared<PatternOpConfig>();
  config->positions.resize(17);
  for (size_t i = 0; i < config->positions.size(); ++i) {
    config->positions[i].type_id = i % 2 == 0 ? a_type_ : b_type_;
  }
  config->output_type = out_type_;
  config->within = 100;
  config->description = "SEQ(A, B, ... x17)";
  auto automaton = CompilePattern(config);
  ASSERT_EQ(automaton->transitions.size(), 17u);
  EXPECT_EQ(automaton->num_states(), 18);
  ASSERT_NE(automaton->StatesAwaiting(a_type_), nullptr);
  ASSERT_NE(automaton->StatesAwaiting(b_type_), nullptr);
  EXPECT_EQ(automaton->StatesAwaiting(a_type_)->size(), 8u);
  EXPECT_EQ(automaton->StatesAwaiting(b_type_)->size(), 8u);
}

TEST_F(CompileTest, PredicatesSortByExpectedCostPerRejection) {
  // Config order: ordering guard (sel 0.5) before equality guard (sel 0.1).
  // Equal cost, so the equality guard's better rejection rate wins.
  auto automaton = CompilePattern(
      SeqABConfig(10, {Predicate("b.x > a.x"), Predicate("b.x = 3")}));
  ASSERT_EQ(automaton->transitions.size(), 2u);
  const auto& guards = automaton->transitions[1].predicates;
  ASSERT_EQ(guards.size(), 2u);
  EXPECT_EQ(guards[0].config_index, 1);  // b.x = 3
  EXPECT_EQ(guards[1].config_index, 0);  // b.x > a.x
  EXPECT_LT(guards[0].rank(), guards[1].rank());
}

TEST_F(CompileTest, DispatchCoversNonInitialStates) {
  auto automaton = CompilePattern(SeqABConfig(10));
  EXPECT_EQ(automaton->num_states(), 3);
  // State 0 is fed by fresh events, not the dispatch table.
  EXPECT_EQ(automaton->StatesAwaiting(a_type_), nullptr);
  const std::vector<int>* awaiting_b = automaton->StatesAwaiting(b_type_);
  ASSERT_NE(awaiting_b, nullptr);
  ASSERT_EQ(awaiting_b->size(), 1u);
  EXPECT_EQ((*awaiting_b)[0], 1);
}

// ---- Operator semantics (differential against PatternOp) -------------

TEST_F(CompileTest, CompiledMatchesInterpretedOnSeq) {
  auto config = SeqABConfig(10, {Predicate("b.x >= a.x")});
  PatternOp interpreted(config);
  CompiledPatternOp compiled(CompilePattern(config));

  // Interleaved batch with multiple live partials, a predicate reject
  // (B 0 < A 1), a within reject (B at t=15 vs A at t=1), and two matches.
  EventBatch input = {MakeA(1, 1), MakeA(2, 2), MakeB(0, 3),
                      MakeB(2, 4),  MakeA(5, 5), MakeB(2, 15)};
  EventBatch interpreted_out;
  EventBatch compiled_out;
  interpreted.Process(input, &interpreted_out, &ctx_);
  compiled.Process(input, &compiled_out, &ctx_);
  EXPECT_GT(interpreted_out.size(), 0u);
  EXPECT_EQ(Render(interpreted_out), Render(compiled_out));
}

TEST_F(CompileTest, ExpiryDropsStaleRuns) {
  CompiledPatternOp op(CompilePattern(SeqABConfig(10)));
  EventBatch out;
  EventBatch first = {MakeA(1, 0), MakeA(2, 5)};
  op.Process(first, &out, &ctx_);
  EXPECT_EQ(op.num_runs(), 2u);
  // Batch at t=100: everything older than 100 - within expires up front.
  EventBatch second = {MakeA(3, 100)};
  op.Process(second, &out, &ctx_);
  EXPECT_EQ(op.num_runs(), 1u);
  op.Reset();
  EXPECT_EQ(op.num_runs(), 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(CompileTest, CloneStartsEmpty) {
  CompiledPatternOp op(CompilePattern(SeqABConfig(10)));
  EventBatch out;
  EventBatch input = {MakeA(1, 0)};
  op.Process(input, &out, &ctx_);
  EXPECT_EQ(op.num_runs(), 1u);
  auto clone = op.Clone();
  EXPECT_EQ(clone->kind(), Operator::Kind::kCompiledPattern);
  EXPECT_EQ(static_cast<CompiledPatternOp*>(clone.get())->num_runs(), 0u);
}

TEST_F(CompileTest, CostEstimatesMatchInterpretedOperator) {
  auto config = SeqABConfig(10);
  PatternOp interpreted(config);
  CompiledPatternOp compiled(CompilePattern(config));
  EXPECT_EQ(compiled.UnitCost(), interpreted.UnitCost());
  EXPECT_EQ(compiled.Selectivity(), interpreted.Selectivity());
}

// ---- Wide patterns through the engine -------------------------------

// SEQ of 17 positive positions over types P0..P16 with a negated Z between
// p7 and p8 (18 positions), a cross-position guard, and two rounds of one
// event per type: each position has at most two candidates, so partial
// matches and the brute-force oracle stay small.
std::string WideSeqModel() {
  std::string model;
  for (int k = 0; k < 17; ++k) {
    model += "TYPE P" + std::to_string(k) + "(x int);\n";
  }
  model +=
      "TYPE Z(x int);\n"
      "TYPE Wide(first int, last int);\n"
      "CONTEXTS idle DEFAULT idle;\n"
      "QUERY wide\n"
      "DERIVE Wide(p0.x AS first, p16.x AS last)\n"
      "PATTERN SEQ(";
  for (int k = 0; k < 17; ++k) {
    if (k == 8) model += "NOT Z z, ";
    model += "P" + std::to_string(k) + " p" + std::to_string(k) +
             (k < 16 ? ", " : ") WITHIN 100\n");
  }
  model += "WHERE p1.x = p0.x + 1;\n";
  return model;
}

std::string RenderStream(const EventBatch& events,
                         const TypeRegistry& registry) {
  std::string out;
  for (const EventPtr& event : events) {
    out += event->ToString(registry) + "\n";
  }
  return out;
}

TEST(WidePatternEngineTest, CompiledMatchesInterpretedAndOracle) {
  TypeRegistry registry;
  auto model = ParseModel(WideSeqModel(), &registry);
  ASSERT_TRUE(model.ok()) << model.status();
  auto plan = TranslateModel(model.value(), PlanOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Round r puts P_k at t = 1 + 40r + 2k with x = 10r + k. A Z between
  // round 1's p7 and p8 kills every match taking p8 from round 1.
  EventBatch input;
  for (int r = 0; r < 2; ++r) {
    for (int k = 0; k < 17; ++k) {
      if (r == 1 && k == 8) {
        input.push_back(
            MakeEvent(registry.Lookup("Z"), 56, {Value(int64_t{0})}));
      }
      input.push_back(MakeEvent(registry.Lookup("P" + std::to_string(k)),
                                1 + 40 * r + 2 * k,
                                {Value(int64_t{10 * r + k})}));
    }
  }

  auto run = [&](PatternEngine engine, StatisticsReport* report) {
    EngineOptions options;
    options.pattern_engine = engine;
    options.metrics = MetricsGranularity::kOperator;
    Engine instance(plan.value().Clone(), options);
    EventBatch derived;
    EXPECT_TRUE(instance.Run(input, &derived).ok());
    if (report != nullptr) *report = instance.CollectStatistics();
    return derived;
  };
  StatisticsReport compiled_report;
  const EventBatch interpreted = run(PatternEngine::kInterpreted, nullptr);
  const EventBatch compiled = run(PatternEngine::kCompiled, &compiled_report);
  auto oracle = RunReferenceModel(model.value(), input);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  // Round 0 supplies positions [0, k), round 1 the rest: k = 1 fails the
  // guard and k <= 8 takes p8 after the Z, leaving k = 9..17.
  EXPECT_EQ(compiled.size(), 9u);
  EXPECT_EQ(RenderStream(compiled, registry),
            RenderStream(interpreted, registry));
  EXPECT_EQ(CanonicalByTick(compiled, registry),
            CanonicalByTick(oracle.value(), registry));

  // The option alone picked the matcher: the 18-position pattern runs as
  // an automaton, not as an interpreted fallback.
  int compiled_rows = 0;
  for (const QueryOperatorStats& row : compiled_report.operators) {
    EXPECT_NE(row.kind, Operator::Kind::kPattern) << row.description;
    if (row.kind != Operator::Kind::kCompiledPattern) continue;
    ++compiled_rows;
    EXPECT_EQ(row.description.rfind("CompiledPattern: ", 0), 0u)
        << row.description;
  }
  EXPECT_EQ(compiled_rows, 1);
}

}  // namespace
}  // namespace caesar
