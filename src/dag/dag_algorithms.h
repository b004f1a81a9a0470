// Graph algorithms over JobDag used by the scheduler and the service:
// topological order, weighted critical path (paper §4.3), pruning of
// cached stages, and the plan-shape fingerprint.
#pragma once

#include <functional>
#include <vector>

#include "dag/job_dag.h"

namespace ditto {

/// Topological order (sources first). The DAG must be valid.
std::vector<StageId> topological_order(const JobDag& dag);

/// Weight callbacks: the grouping objective decides these (paper §4.3).
/// For JCT:   node = C(s),            edge = W(src) + R(dst)
/// For cost:  node = M(s)C(s),        edge = M(src)W(src) + M(dst)R(dst)
using NodeWeightFn = std::function<double(StageId)>;
using EdgeWeightFn = std::function<double(const Edge&)>;

struct CriticalPath {
  std::vector<StageId> stages;  ///< source..sink order
  double length = 0.0;          ///< sum of node + edge weights along it
};

/// Maximum-weight source-to-sink path.
CriticalPath critical_path(const JobDag& dag, const NodeWeightFn& node_weight,
                           const EdgeWeightFn& edge_weight);

/// Result of pruning already-completed stages from a DAG (the service
/// result cache's stage-granular reuse): `dag` holds the stages that
/// still execute plus zero-compute *replay* sources standing in for
/// completed stages whose outputs downstream stages still read. A
/// replay stage keeps the original's name (suffixed "~cached"), output
/// volume, and write steps — its binding re-publishes the cached table
/// through the job's exchange prefix — but reads and computes nothing.
struct DagPruning {
  JobDag dag;
  std::vector<StageId> to_old;   ///< new id -> original id
  std::vector<StageId> to_new;   ///< original id -> new id (kNoStage = dropped)
  std::vector<bool> is_replay;   ///< by new id
  std::size_t num_replay = 0;    ///< replay sources in `dag`
  std::size_t num_dropped = 0;   ///< original stages neither executed nor replayed
};

/// Rebuilds `dag` without the `completed` stages (completed[s] = stage
/// s's output is cached): stages whose results no uncached sink still
/// needs are dropped; completed stages feeding a remaining stage become
/// replay sources. Fails INVALID_ARGUMENT when every sink is completed
/// (a whole-job hit: nothing left to run) or when reuse would cross a
/// kGather edge — gather routes producer task t to consumer task t, so
/// a replay source with a different DoP would silently misroute rows;
/// callers must not mark gather producers completed.
Result<DagPruning> prune_completed_stages(const JobDag& dag,
                                          const std::vector<bool>& completed);

/// Stable 64-bit fingerprint of the DAG's *plan shape*: stage names,
/// operators, and the edge list with exchange kinds. Two submissions of
/// the same query shape hash identically regardless of data volumes or
/// fitted model parameters, so recurring jobs share profile history
/// keyed by this value (paper §6.5: recurring analytics jobs).
std::uint64_t structural_fingerprint(const JobDag& dag);

}  // namespace ditto
