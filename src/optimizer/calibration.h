// Cost-model calibration from gathered runtime statistics — the feedback
// edge between the statistics gatherer and the optimizer in Fig. 8.
//
// A run with EngineOptions::metrics = kOperator produces a StatisticsReport;
// calibration turns it into cost-model parameters (observed context
// activity) and into per-operator observed selectivities/unit costs, which
// replace the static defaults when estimating plan costs. This lets an
// application re-evaluate its plan shape against the actual workload
// ("would push-down still win if contexts were active 95% of the time?").

#ifndef CAESAR_OPTIMIZER_CALIBRATION_H_
#define CAESAR_OPTIMIZER_CALIBRATION_H_

#include "optimizer/cost_model.h"
#include "plan/plan.h"
#include "runtime/statistics.h"

namespace caesar {

// Cost-model parameters implied by a run's statistics.
CostModelParams CalibrateCostParams(const StatisticsReport& report);

// Expected plan cost per input event using observed per-operator
// selectivities and unit costs where the report has them (rows are matched
// by query name and operator index; unmatched operators fall back to their
// static estimates).
double EstimatePlanCostCalibrated(const ExecutablePlan& plan,
                                  const StatisticsReport& report,
                                  const CostModelParams& params);

}  // namespace caesar

#endif  // CAESAR_OPTIMIZER_CALIBRATION_H_
