// Placement-aware execution time prediction (paper §4.1).
//
// T(s, d, P) = R(s, d, P) + C(s, d) + W(s, d, P)
//
// Read/write steps tied to a data dependency cost zero when the
// placement P co-locates the two stages on the same server (zero-copy
// shared memory, "Modeling the shared memory"); compute steps never
// depend on placement. A per-stage straggler scaling factor inflates
// the parallelized term to account for skew ("Modeling stragglers").
#pragma once

#include <functional>
#include <vector>

#include "dag/job_dag.h"
#include "timemodel/step_model.h"

namespace ditto {

/// Answers "are stages a and b placed so their exchange is zero-copy?".
/// The scheduler provides this from its current grouping decision; the
/// simulator provides it from the concrete placement plan.
using ColocatedFn = std::function<bool(StageId, StageId)>;

/// A placement view under which no pair is co-located (everything
/// shuffles through external storage).
ColocatedFn nothing_colocated();

/// A placement view under which every pair is co-located.
ColocatedFn everything_colocated();

class ExecTimePredictor {
 public:
  /// The predictor borrows the DAG; it must outlive the predictor.
  explicit ExecTimePredictor(const JobDag& dag) : dag_(&dag) {}

  /// Effective stage-level (alpha, beta) under the placement view:
  /// sums non-pipelined steps, zeroing IO steps whose dependency is
  /// co-located, and applies the straggler factor to alpha.
  StepModel stage_model(StageId s, const ColocatedFn& colocated) const;

  /// Predicted total stage time at DoP d (Eq. 1).
  double stage_time(StageId s, int dop, const ColocatedFn& colocated) const;

  /// Per-step-kind components (for breakdown figures).
  double read_time(StageId s, int dop, const ColocatedFn& colocated) const;
  double compute_time(StageId s, int dop) const;
  double write_time(StageId s, int dop, const ColocatedFn& colocated) const;

  /// Straggler scaling factor applied to the parallelized term of stage
  /// `s`. Default 1.0; the runtime monitor tunes it from job history.
  void set_straggler_factor(StageId s, double factor);
  double straggler_factor(StageId s) const;

  /// Predicted cost of a stage (Eq. 5 product): M(s, d) * T(s, d, P)
  /// with M(s, d) = rho + sigma * d.
  double stage_cost(StageId s, int dop, const ColocatedFn& colocated) const;

  /// Resource usage M(s, d) = rho + sigma * d.
  double resource_usage(StageId s, int dop) const;

  /// Time attributable to one data dependency when it goes through
  /// external storage: src's write step feeding dst (at dop_src) plus
  /// dst's read step from src (at dop_dst). This is the edge weight
  /// W(s_i) + R(s_j) of the grouping algorithm (paper §4.3).
  double edge_io_time(StageId src, StageId dst, int dop_src, int dop_dst) const;

  /// The two components of edge_io_time separately (cost weighting
  /// multiplies them by different resource usages).
  double edge_write_time(StageId src, StageId dst, int dop_src) const;
  double edge_read_time(StageId src, StageId dst, int dop_dst) const;

  const JobDag& dag() const { return *dag_; }

 private:
  double kind_time(StageId s, int dop, StepKind kind, const ColocatedFn& colocated) const;
  bool step_is_zero_copy(StageId s, const Step& step, const ColocatedFn& colocated) const;

  const JobDag* dag_;
  std::vector<double> straggler_;  // indexed by StageId; empty entries = 1.0
};

}  // namespace ditto
