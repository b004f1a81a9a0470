// Placement-aware execution time prediction (paper §4.1).
//
// T(s, d, P) = R(s, d, P) + C(s, d) + W(s, d, P)
//
// Read/write steps tied to a data dependency cost zero when the
// placement P co-locates the two stages on the same server (zero-copy
// shared memory, "Modeling the shared memory"); compute steps never
// depend on placement. A per-stage straggler scaling factor inflates
// the parallelized term to account for skew ("Modeling stragglers").
//
// The predictor flattens each stage's non-pipelined steps into rows
// once, when it is built; every query sums those rows in step order.
// A placement view is either a ColocatedFn or, for the scheduler's
// search, the set of co-located edges as EdgeFlags. Both forms read
// the same rows, so they give the same bits.
#pragma once

#include <functional>
#include <vector>

#include "dag/dag_algorithms.h"
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
  /// The predictor borrows the DAG, which must outlive it, and reads
  /// its steps and edges once, here: build a new predictor after
  /// changing them. Stage rho, sigma and straggler scale are read when
  /// queried.
  explicit ExecTimePredictor(const JobDag& dag);

  /// Effective stage-level (alpha, beta) under the placement view:
  /// sums non-pipelined steps, zeroing IO steps whose dependency is
  /// co-located, and applies the straggler factor to alpha.
  StepModel stage_model(StageId s, const ColocatedFn& colocated) const;

  /// The same with the co-located edges given as flags over
  /// dag().edges() (grouped[e] != 0: edge e shuffles zero-copy).
  StepModel stage_model(StageId s, const EdgeFlags& grouped) const;

  /// stage_model(s, grouped) of every stage, indexed by StageId.
  std::vector<StepModel> stage_models(const EdgeFlags& grouped) const;

  /// Predicted total stage time at DoP d (Eq. 1).
  double stage_time(StageId s, int dop, const ColocatedFn& colocated) const;

  /// Per-step-kind components (for breakdown figures).
  double read_time(StageId s, int dop, const ColocatedFn& colocated) const;
  double read_time(StageId s, int dop, const EdgeFlags& grouped) const;
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

  /// The same for edge `e` of dag().edges().
  double edge_write_time(int e, int dop_src) const;
  double edge_read_time(int e, int dop_dst) const;

  const JobDag& dag() const { return *dag_; }

  /// The DAG's topology as of construction.
  const DagTopology& topology() const { return topology_; }

 private:
  /// A non-pipelined step. `dep` is the stage on the other side of an
  /// IO step (kNoStage for compute and external IO); `edge` is the
  /// index of that dependency's edge (-1 if there is none).
  struct StepRow {
    StepKind kind;
    StageId dep;
    int edge;
    double alpha;
    double beta;
  };

  /// Sum of stage s's rows that `keep` accepts, in step order.
  template <class Keep>
  StepModel sum_rows(StageId s, Keep keep) const;

  /// `m` with stage s's straggler factor applied to alpha.
  StepModel scaled(StageId s, StepModel m) const;

  /// Sums of src's write steps toward dst and of dst's reads from src.
  StepModel edge_write_sum(StageId src, StageId dst) const;
  StepModel edge_read_sum(StageId src, StageId dst) const;

  const JobDag* dag_;
  DagTopology topology_;
  std::vector<std::size_t> row_begin_;  ///< stage s owns rows_[row_begin_[s], row_begin_[s + 1])
  std::vector<StepRow> rows_;
  // Sums the grouping weights read for every stage and edge, before
  // the straggler factor.
  std::vector<StepModel> compute_;     ///< by stage
  std::vector<StepModel> edge_write_;  ///< by edge: edge_write_sum
  std::vector<StepModel> edge_read_;   ///< by edge: edge_read_sum
  std::vector<double> straggler_;  // indexed by StageId; empty entries = 1.0
};

}  // namespace ditto
