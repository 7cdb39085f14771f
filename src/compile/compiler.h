// The pattern-to-automaton compiler: PatternOpConfig -> CompiledAutomaton.
//
// Compilation resolves everything the interpreted matcher re-derives per
// event or per match — positive/negated position split, negation intervals,
// per-type state dispatch — and orders each transition's predicate closures
// by the cost model's estimates (see automaton.h). Every pattern compiles,
// whatever its width: a run holds one event slot per position, so nothing
// bounds the position count.

#ifndef CAESAR_COMPILE_COMPILER_H_
#define CAESAR_COMPILE_COMPILER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "compile/automaton.h"

namespace caesar {

class CaesarModel;
struct PlanOptions;

// Knobs consulted while compiling one pattern.
struct PatternCompileOptions {
  // Run the abstract interpreter (analysis/absint.h) over the position
  // guards: prune guards proven implied by earlier ones, mark transitions
  // proven impassable, and refine guard selectivities from the derived
  // satisfiable-fraction bounds. Off must be byte-identical to a compiler
  // without the pass (EngineOptions::absint threads through here).
  bool absint = true;
};

// Compiles `config`. The automaton shares ownership of the config.
std::shared_ptr<const CompiledAutomaton> CompilePattern(
    std::shared_ptr<const PatternOpConfig> config,
    const PatternCompileOptions& options = {});

// Translates `model` and renders the automaton of every pattern operator in
// plan order (deriving queries, then processing), one DumpText block per
// operator prefixed by "query <name>". Backs `caesar_lint --dump-automaton`
// and the tests/compile_corpus/ goldens.
Result<std::string> DumpModelAutomatons(
    const CaesarModel& model, const PlanOptions& plan_options,
    const PatternCompileOptions& compile_options = {});

}  // namespace caesar

#endif  // CAESAR_COMPILE_COMPILER_H_
