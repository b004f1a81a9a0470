// Placement check (paper §4.4 "Placement check", Algorithm 2/3's
// CAN_PLACE): decides whether a DoP configuration plus a stage-grouping
// fits the cluster's free slots, and if so produces the concrete
// task-to-server assignment.
//
// Stage groups are placed by best fit: groups sorted by required slots
// descending, each onto the server whose free-slot count exceeds the
// requirement by the least. Groups whose internal edges are all
// `gather` decompose into per-task "task groups" that place
// independently (paper §4.5, Fig. 7). Ungrouped stages' tasks may
// scatter across any remaining slots (their edges pay remote shuffling
// regardless of where they run).
#pragma once

#include <vector>

#include "cluster/placement.h"
#include "common/status.h"
#include "dag/job_dag.h"
#include "dag/dag_algorithms.h"

namespace ditto::scheduler {

/// Union-find over stage ids (path halving).
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n);
  std::size_t find(std::size_t x);
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

class PlacementChecker {
 public:
  explicit PlacementChecker(const JobDag& dag) : dag_(&dag) {}

  /// CAN_PLACE + plan construction. `free_slots[i]` is the number of
  /// free function slots on server i. Fails with RESOURCE_EXHAUSTED
  /// when the configuration does not fit.
  Result<cluster::PlacementPlan> place(const std::vector<int>& dop,
                                       const std::vector<EdgeRef>& grouped,
                                       const std::vector<int>& free_slots) const;

  /// CAN_PLACE alone, for the optimization loop: the same best fit as
  /// place(), without recording where the tasks go.
  bool fits(const std::vector<int>& dop, const std::vector<EdgeRef>& grouped,
            const std::vector<int>& free_slots) const;

 private:
  const JobDag* dag_;
};

}  // namespace ditto::scheduler
