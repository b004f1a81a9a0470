// The Ditto scheduler: joint iterative optimization of parallelism
// configuration and stage grouping (paper §4.4, Algorithm 3).
//
// Starting from every stage in its own group, repeatedly:
//   1. sort ungrouped edges in greedy grouping order (§4.3),
//   2. tentatively group the first edge (its shuffle becomes zero-copy),
//   3. recompute optimal DoPs with DoP ratio computing (§4.2),
//   4. best-fit placement check (§4.4); keep the group on success,
//      backtrack on failure and try the next edge,
// until a full pass groups nothing. The objective value is
// non-increasing across accepted iterations (paper Eq. 6); an explicit
// guard also rejects groupings that regress due to integer rounding.
//
// The search reads one ExecTimePredictor per schedule() call, with each
// grouping as flags over the DAG's edges; it checks placement without
// recording assignments, and places and evaluates only the winner.
#pragma once

#include <vector>

#include "scheduler/dop_ratio.h"
#include "scheduler/grouping.h"
#include "scheduler/placement_check.h"
#include "scheduler/scheduler.h"

namespace ditto::scheduler {

struct DittoOptions {
  /// Reject groupings that increase the objective (rounding guard).
  bool enforce_monotone = true;
  /// Cap on optimization iterations (safety net; |E| passes suffice).
  int max_iterations = 10000;
  /// When a stage group's combined DoP fits no server, retry with the
  /// group's DoPs scaled down to the largest server — the paper's
  /// Figure-2 insight that a lower DoP with zero-copy co-location can
  /// beat a higher DoP with remote shuffling. The objective guard
  /// still rejects shrinks that do not pay off.
  bool shrink_oversized_groups = true;
  /// Record every grouping attempt for observability (last_trace()).
  bool record_trace = false;
};

/// One grouping attempt in the joint optimization.
struct TraceStep {
  StageId src = kNoStage;
  StageId dst = kNoStage;
  bool accepted = false;
  bool used_shrink = false;     ///< Figure-2 fallback made it placeable
  double objective = 0.0;       ///< predicted objective after the attempt
  const char* variant = "";     ///< which multi-start candidate
};

class DittoScheduler final : public Scheduler {
 public:
  explicit DittoScheduler(DittoOptions options = {}) : options_(options) {}

  const char* name() const override { return "Ditto"; }

  Result<SchedulePlan> schedule(const JobDag& dag, const cluster::Cluster& cluster,
                                Objective objective,
                                const storage::StorageModel& external) override;

  /// Grouping attempts of the most recent schedule() call (only
  /// populated when options.record_trace is set).
  const std::vector<TraceStep>& last_trace() const { return trace_; }

 private:
  DittoOptions options_;
  std::vector<TraceStep> trace_;
};

}  // namespace ditto::scheduler
