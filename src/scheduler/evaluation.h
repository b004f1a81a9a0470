// Plan evaluation: predicted JCT, predicted cost, and the stage
// timeline for a (DoP, placement) plan. A stage's start is also its
// NIMBLE launch time (paper §5 "Task launch time"): each stage launches
// exactly when its last input finishes, so functions never idle
// waiting for upstream data.
//
// JCT follows the DAG recurrence
//   start(s)  = max_{p in parents(s)} finish(p)        (sources: 0)
//   finish(s) = start(s) + T(s, d_s, P)
//   JCT       = max_s finish(s)
// matching the paper's definition (critical path of the stage graph).
//
// Cost (paper §6 "Metrics") is memory-GB x seconds summed over tasks:
//   sum_s M(s, d_s) * T(s, d_s, P)
// plus data-persistence cost for intermediate results held in shared
// memory or in the external store between production and consumption
// (§6.2 discusses exactly this shared-memory persistence cost).
#pragma once

#include <vector>

#include "cluster/placement.h"
#include "dag/job_dag.h"
#include "storage/object_store.h"
#include "timemodel/predictor.h"

namespace ditto::scheduler {

struct CostBreakdown {
  double function_gbs = 0.0;  ///< M(s,d) x T summed over stages
  double shm_gbs = 0.0;       ///< zero-copy intermediate persistence
  double storage_gbs = 0.0;   ///< external-store intermediate persistence
  double total() const { return function_gbs + shm_gbs + storage_gbs; }
};

struct PlanEvaluation {
  double jct = 0.0;
  CostBreakdown cost;
  std::vector<double> stage_start;   // indexed by StageId
  std::vector<double> stage_finish;  // indexed by StageId
};

/// Price of shared memory relative to function memory (same DRAM).
inline constexpr double kShmGbSecondPrice = 1.0;

/// Evaluate a DoP configuration of the predictor's DAG under the
/// `grouped` edges. `external` is the store model used by non-grouped
/// edges (its cost_per_gb_second is normalized against function-memory
/// price internally; S3's rounds to ~0 as in the paper).
PlanEvaluation evaluate(const ExecTimePredictor& predictor, const std::vector<int>& dop,
                        const EdgeFlags& grouped, const storage::StorageModel& external);

/// The objective's value of a configuration: evaluate()'s jct (its
/// persistence pass skipped) or its cost.total().
double objective_value(const ExecTimePredictor& predictor, const std::vector<int>& dop,
                       const EdgeFlags& grouped, Objective objective,
                       const storage::StorageModel& external);

/// evaluate() of a plan's DoPs and zero-copy edges.
PlanEvaluation evaluate_plan(const ExecTimePredictor& predictor,
                             const cluster::PlacementPlan& plan,
                             const storage::StorageModel& external);

}  // namespace ditto::scheduler
