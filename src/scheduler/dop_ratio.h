// DoP ratio computing (paper §4.2, Algorithm 1).
//
// Given the effective per-stage time model (alpha, beta) under the
// current placement view, computes the optimal degree of parallelism
// for every stage subject to sum(d_i) <= C:
//
//   * intra-path (parent-child) ratio:  d_i / d_j = sqrt(alpha_i / alpha_j)
//     (optimal by Cauchy–Schwarz, Appendix A.1)
//   * inter-path (sibling) ratio:       d_i / d_j = alpha_i / alpha_j
//     (balanced structure optimal, Appendix A.2)
//
// The algorithm merges stages bottom-up — siblings first, then the
// merged virtual stage with its parent — reducing the DAG to a single
// virtual stage whose recorded split ratios are then unwound to assign
// concrete DoPs. Cost optimization reuses the machinery after
// transforming each stage's parallelized time to rho_i * alpha_i and
// treating the DAG as a single path (paper §4.2 "Optimizing cost").
#pragma once

#include <vector>

#include "common/status.h"
#include "dag/job_dag.h"
#include "timemodel/step_model.h"

namespace ditto::scheduler {

struct DopResult {
  /// Integer DoP per stage after rounding (paper §4.5: floor, min 1).
  std::vector<int> dop;
  /// The continuous optimum before rounding (diagnostics, tests).
  std::vector<double> continuous;
};

/// One merge of Algorithm 1: virtual stages `left` and `right` become
/// one, by the intra-path (parent-child) or the inter-path (sibling)
/// rule. Ids 0..n-1 are the stages; merge k creates id n + k.
struct Merge {
  int left = -1;
  int right = -1;
  bool intra = false;
};

/// Algorithm 1's merges for `dag`, in order. Which virtual stages merge,
/// when, and by which rule depends only on the DAG's shape (depths, ids,
/// reachability), never on the stage models, so one order serves every
/// placement view of the DAG.
std::vector<Merge> merge_order(const JobDag& dag);

/// Optimal DoPs from per-stage models: `models[s]` is stage s's
/// effective (alpha, beta) under the placement view being optimized.
/// JCT replays `merges` (merge_order(dag)); cost uses the single-path
/// rule above and ignores them.
Result<DopResult> optimal_dops(const JobDag& dag, const std::vector<Merge>& merges,
                               const std::vector<StepModel>& models, Objective objective,
                               int total_slots);

/// Round a continuous DoP vector down to integers (min 1), repairing any
/// overshoot of `total_slots` caused by the min-1 floor by shrinking the
/// largest entries. Exposed for unit testing.
std::vector<int> round_dops(const std::vector<double>& continuous, int total_slots);

}  // namespace ditto::scheduler
