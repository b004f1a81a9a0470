// Graph algorithms over JobDag used by the scheduler and the service:
// topological order, a flat index of the edges, the weighted critical
// path (paper §4.3), pruning of cached stages, and the plan-shape
// fingerprint.
#pragma once

#include <utility>
#include <vector>

#include "dag/job_dag.h"

namespace ditto {

/// Topological order (sources first). The DAG must be valid.
std::vector<StageId> topological_order(const JobDag& dag);

/// An edge named by its endpoints (src, dst).
using EdgeRef = std::pair<StageId, StageId>;

/// A set of edges as one flag per index of dag.edges(): flags[e] != 0
/// means edge e is in the set.
using EdgeFlags = std::vector<char>;

/// A maximum-weight source-to-sink path. Passing the same object to
/// DagTopology::critical_path() again reuses its storage.
struct CriticalPath {
  std::vector<int> edges;   ///< edge indices, source..sink order
  StageId tail = kNoStage;  ///< the sink it ends at
  double length = 0.0;      ///< sum of node + edge weights along it
  std::vector<double> best;  ///< scratch: heaviest path weight into each stage
  std::vector<int> via;      ///< scratch: last edge of that path (-1 at sources)
};

/// A DAG's topology as flat indices, for code that walks one DAG many
/// times: edge e is dag.edges()[e]. Built from a snapshot of the DAG;
/// the DAG must be valid and must not gain stages or edges afterwards.
class DagTopology {
 public:
  explicit DagTopology(const JobDag& dag);

  /// topological_order(dag).
  const std::vector<StageId>& order() const { return order_; }

  /// Index of edge (src, dst), or -1 if there is none.
  int edge_index(StageId src, StageId dst) const;

  /// `edges` as flags (pairs that are not edges of the DAG are ignored).
  EdgeFlags flags_of(const std::vector<EdgeRef>& edges) const;

  /// Maximum-weight source-to-sink path into `out`, weighing stage s
  /// by node_w[s] and edge e by edge_w[e]. The grouping objective
  /// decides the weights (paper §4.3): for JCT node = C(s) and edge =
  /// W(src) + R(dst); for cost node = M(s)C(s) and edge = M(src)W(src)
  /// + M(dst)R(dst). Ties go to the first parent, then to the first
  /// sink. The DAG must have at least one stage.
  void critical_path(const std::vector<double>& node_w, const std::vector<double>& edge_w,
                     CriticalPath& out) const;

 private:
  const JobDag* dag_;
  std::vector<StageId> order_;
  std::vector<StageId> sinks_;
  std::vector<std::vector<int>> in_edges_;  ///< edges into s, aligned with dag.parents(s)
  std::vector<std::vector<int>> out_edges_;
};

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
