// Greedy grouping (paper §4.3, Algorithm 2).
//
// Decides the ORDER in which edges are considered for grouping; the
// joint optimizer (§4.4) tries them in this order against DoP ratio
// computing and the placement check.
//
// Weights (at the current DoP configuration):
//   JCT:  node C(s);              edge  W(src) + R(dst)
//   cost: node M(s)C(s);          edge  M(src)W(src) + M(dst)R(dst)
// A grouped edge's weight is zero (zero-copy shared memory).
//
// For JCT the order is critical-path driven: repeatedly find the
// critical path under current weights, pick its heaviest ungrouped
// edge, zero it, recurse. For cost it is simply all edges in
// descending weight.
#pragma once

#include <vector>

#include "dag/dag_algorithms.h"
#include "dag/job_dag.h"
#include "timemodel/predictor.h"

namespace ditto::scheduler {

class GreedyGrouper {
 public:
  /// Borrows the predictor; it must outlive the grouper.
  GreedyGrouper(const ExecTimePredictor& predictor, Objective objective)
      : predictor_(&predictor), objective_(objective) {}

  /// Weight of edge (src, dst) given current DoPs; 0 if in `grouped`.
  double edge_weight(const Edge& e, const std::vector<int>& dop,
                     const std::vector<EdgeRef>& grouped) const;

  /// Node weight of stage s given current DoPs.
  double node_weight(StageId s, const std::vector<int>& dop) const;

  /// Greedy traversal order over `candidates` (the ungrouped edges),
  /// under the current DoPs and already-grouped set.
  std::vector<EdgeRef> traversal_order(const std::vector<EdgeRef>& candidates,
                                       const std::vector<int>& dop,
                                       const std::vector<EdgeRef>& grouped) const;

 private:
  /// Weight of edge `e` (an index of dag().edges()) when it is not grouped.
  double ungrouped_weight(int e, const std::vector<int>& dop) const;

  const ExecTimePredictor* predictor_;
  Objective objective_;
};

}  // namespace ditto::scheduler
