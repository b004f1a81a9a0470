#include "scheduler/grouping.h"

#include <algorithm>
#include <cassert>

namespace ditto::scheduler {

double GreedyGrouper::ungrouped_weight(int e, const std::vector<int>& dop) const {
  const ExecTimePredictor& p = *predictor_;
  const Edge& edge = p.dag().edges()[e];
  const int ds = dop[edge.src], dd = dop[edge.dst];
  if (objective_ == Objective::kJct) return p.edge_write_time(e, ds) + p.edge_read_time(e, dd);
  return p.resource_usage(edge.src, ds) * p.edge_write_time(e, ds) +
         p.resource_usage(edge.dst, dd) * p.edge_read_time(e, dd);
}

double GreedyGrouper::edge_weight(const Edge& e, const std::vector<int>& dop,
                                  const std::vector<EdgeRef>& grouped) const {
  const EdgeRef ref{e.src, e.dst};
  if (std::find(grouped.begin(), grouped.end(), ref) != grouped.end()) return 0.0;  // zero-copy
  return ungrouped_weight(predictor_->topology().edge_index(e.src, e.dst), dop);
}

double GreedyGrouper::node_weight(StageId s, const std::vector<int>& dop) const {
  const double c = predictor_->compute_time(s, dop[s]);
  if (objective_ == Objective::kJct) return c;
  return predictor_->resource_usage(s, dop[s]) * c;
}

std::vector<EdgeRef> GreedyGrouper::traversal_order(const std::vector<EdgeRef>& candidates,
                                                    const std::vector<int>& dop,
                                                    const std::vector<EdgeRef>& grouped) const {
  const JobDag& dag = predictor_->dag();
  const DagTopology& topology = predictor_->topology();
  // Edge weights at these DoPs. The grouped set, and then each edge
  // once it is ordered, weighs zero before the next critical path.
  std::vector<double> edge_w(dag.num_edges());
  const EdgeFlags zero = topology.flags_of(grouped);
  for (std::size_t e = 0; e < edge_w.size(); ++e) {
    edge_w[e] = zero[e] ? 0.0 : ungrouped_weight(static_cast<int>(e), dop);
  }
  std::vector<int> remaining;
  remaining.reserve(candidates.size());
  for (const auto& [src, dst] : candidates) {
    remaining.push_back(topology.edge_index(src, dst));
    assert(remaining.back() >= 0);
  }
  std::vector<EdgeRef> order;
  order.reserve(candidates.size());

  if (objective_ == Objective::kCost) {
    // Cost: all candidate edges in descending weight (ties: stable).
    std::vector<std::pair<double, EdgeRef>> weighted;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      weighted.emplace_back(edge_w[remaining[i]], candidates[i]);
    }
    std::stable_sort(weighted.begin(), weighted.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [w, er] : weighted) order.push_back(er);
    return order;
  }

  // JCT: critical-path-driven ordering.
  std::vector<double> node_w(dag.num_stages());
  for (StageId s = 0; s < node_w.size(); ++s) node_w[s] = node_weight(s, dop);
  EdgeFlags open(dag.num_edges(), 0);
  for (int e : remaining) open[e] = 1;
  CriticalPath cp;
  while (!remaining.empty()) {
    topology.critical_path(node_w, edge_w, cp);
    // Heaviest remaining edge on the critical path, source first.
    int pick = -1;
    double pick_w = -1.0;
    for (int e : cp.edges) {
      if (open[e] && edge_w[e] > pick_w) {
        pick_w = edge_w[e];
        pick = e;
      }
    }
    if (pick < 0) {
      // No remaining candidate on the CP (all its edges grouped or the
      // CP moved off them): fall back to the globally heaviest edge.
      for (int e : remaining) {
        if (edge_w[e] > pick_w) {
          pick_w = edge_w[e];
          pick = e;
        }
      }
    }
    const Edge& chosen = dag.edges()[pick];
    order.emplace_back(chosen.src, chosen.dst);
    edge_w[pick] = 0.0;
    open[pick] = 0;
    remaining.erase(std::find(remaining.begin(), remaining.end(), pick));
  }
  return order;
}

}  // namespace ditto::scheduler
