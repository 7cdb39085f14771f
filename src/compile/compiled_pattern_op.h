// The automaton-backed pattern operator. Under EngineOptions::pattern_engine
// = compiled the engine replaces every PATTERN operator with one of these,
// whatever its width (single-event pass-through patterns included), behind
// the Operator interface. Semantically identical to algebra/pattern_op.h,
// but incremental:
//
//  - Runs are bucketed per automaton state and only probed when an event of
//    the state's awaited type arrives (type dispatch), instead of scanning
//    every partial match for every event.
//  - Transition predicates run in the compiler's cost order and
//    short-circuit run creation (lazy evaluation).
//  - Expiry keeps a per-state minimum first_time, so states with no stale
//    runs are skipped entirely (timer wheel degenerate case: one timer per
//    state suffices because WITHIN is a single per-pattern constant).
//
// Determinism contract: the derived event stream is byte-identical to the
// interpreted operator's. The interpreted matcher scans its partials deque
// in append order; this operator tags every run with a monotonically
// increasing sequence number and probes candidate states in a seq-ordered
// merge, then appends new runs in creation order (fresh first, extensions
// in scan order) exactly like the interpreted step 4. Work-unit counts
// (ops_executed) legitimately differ — fewer probes is the point.
//
// Per-state statistics reuse OperatorStats so the calibration skip rule
// applies unchanged: a state that never saw a candidate has no observable
// selectivity (nullopt), it is not a measured always-fails transition.

#ifndef CAESAR_COMPILE_COMPILED_PATTERN_OP_H_
#define CAESAR_COMPILE_COMPILED_PATTERN_OP_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "compile/automaton.h"
#include "runtime/statistics.h"

namespace caesar {

class CompiledPatternOp : public Operator {
 public:
  explicit CompiledPatternOp(
      std::shared_ptr<const CompiledAutomaton> automaton);

  void Process(const EventBatch& input, EventBatch* output,
               OpExecContext* ctx) override;
  std::unique_ptr<Operator> Clone() const override;
  void Reset() override;
  void ExpireBefore(Timestamp t) override;
  std::string DebugString() const override;
  void SaveState(StateWriter* w) const override;
  Status LoadState(StateReader* r) override;

  // Static estimates match the interpreted operator's: the engine selects
  // the pattern engine after planning, so the two must cost identically or
  // plan shapes would diverge between engines.
  double UnitCost() const override;
  double Selectivity() const override;

  const CompiledAutomaton& automaton() const { return *automaton_; }
  const PatternOpConfig& config() const { return *automaton_->config; }

  // Per-transition observations: input_events = candidate runs probed (for
  // state 0: type-matching events), output_events = advancements. Index =
  // source state.
  const std::vector<OperatorStats>& state_stats() const {
    return state_stats_;
  }
  // Observed advance ratio of `state`; nullopt while the state has never
  // probed a candidate (calibration skip rule — see statistics.h).
  std::optional<double> ObservedStateSelectivity(int state) const;

  // Introspection for tests and the garbage collector.
  size_t num_runs() const;
  size_t negation_buffer_size() const;

 private:
  // A partial match: state s holds runs with the first s positive
  // components bound. Negated slots are bound transiently at completion.
  struct Run {
    std::vector<EventPtr> bound;
    Timestamp first_time = 0;
    Timestamp last_time = -1;
    uint64_t seq = 0;  // global creation order (the determinism contract)
  };

  void ProcessEvent(const EventPtr& event, EventBatch* output,
                    OpExecContext* ctx);
  bool PredicatesPass(const std::vector<EventPtr>& bound_scratch,
                      const AutomatonTransition& transition,
                      OpExecContext* ctx) const;
  bool NegationsPass(Run* run, OpExecContext* ctx);
  void EmitMatch(const Run& run, EventBatch* output) const;
  void StoreRun(int state, Run run);

  std::shared_ptr<const CompiledAutomaton> automaton_;
  // runs_[s] = runs in state s, ascending seq; slots 0 and k are unused
  // (fresh runs are created from the event, accepted runs emit).
  std::vector<std::deque<Run>> runs_;
  // Min first_time per state (expiry skip); max() when the state is empty.
  std::vector<Timestamp> state_min_first_;
  uint64_t seq_counter_ = 0;
  // One time-ordered buffer per NegationWatch.
  std::vector<std::deque<EventPtr>> neg_buffers_;
  std::vector<OperatorStats> state_stats_;
};

}  // namespace caesar

#endif  // CAESAR_COMPILE_COMPILED_PATTERN_OP_H_
