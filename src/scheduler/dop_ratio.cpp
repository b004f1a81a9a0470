#include "scheduler/dop_ratio.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "timemodel/step_model.h"

namespace ditto::scheduler {

namespace {

// Guard against degenerate stages whose effective alpha collapsed to
// zero (e.g. every IO step zero-copied and negligible compute): they
// still need one slot, and ratios must stay finite.
constexpr double kMinAlpha = 1e-9;

/// A node of the merge tree. Leaves wrap original stages; internal
/// nodes record how their slot share splits between the two children.
struct MergeNode {
  double alpha = 0.0;
  double beta = 0.0;
  StageId leaf = kNoStage;
  int left = -1;
  int right = -1;
  double left_frac = 0.0;  ///< share of this node's DoP given to `left`
};

/// Mutable virtual-stage graph reduced by Algorithm 1.
struct WorkGraph {
  std::vector<MergeNode> nodes;            // arena of merge-tree nodes
  std::set<int> live;                      // node ids still in the graph
  std::vector<std::set<int>> up, down;     // adjacency among live nodes

  int add_node(MergeNode n) {
    nodes.push_back(n);
    up.emplace_back();
    down.emplace_back();
    return static_cast<int>(nodes.size()) - 1;
  }

  bool reaches(int from, int to) const {
    std::vector<int> stack{from};
    std::set<int> seen{from};
    while (!stack.empty()) {
      const int cur = stack.back();
      stack.pop_back();
      if (cur == to) return true;
      for (int d : down[cur]) {
        if (seen.insert(d).second) stack.push_back(d);
      }
    }
    return false;
  }

  /// Longest distance (in edges) from `v` downstream to any sink.
  int depth(int v) const {
    int best = 0;
    for (int d : down[v]) best = std::max(best, depth(d) + 1);
    return best;
  }

  /// Replace the nodes in `merged` with `v`, re-attaching external
  /// edges (skipping any that would create a cycle).
  void replace(const std::set<int>& merged, int v) {
    std::set<int> new_up, new_down;
    for (int m : merged) {
      for (int u : up[m]) {
        if (merged.count(u) == 0) new_up.insert(u);
      }
      for (int d : down[m]) {
        if (merged.count(d) == 0) new_down.insert(d);
      }
      live.erase(m);
    }
    live.insert(v);
    // Rebuild adjacency of neighbours: drop edges into merged nodes.
    for (int n : live) {
      if (n == v) continue;
      for (int m : merged) {
        up[n].erase(m);
        down[n].erase(m);
      }
    }
    for (int u : new_up) {
      up[v].insert(u);
      down[u].insert(v);
    }
    for (int d : new_down) {
      if (up[v].count(d) || reaches_via(d, v)) continue;  // avoid cycles
      down[v].insert(d);
      up[d].insert(v);
    }
  }

  bool reaches_via(int from, int to) const { return reaches(from, to); }
};

int merge_pair(WorkGraph& g, int a, int b, bool intra) {
  const double aa = std::max(g.nodes[a].alpha, kMinAlpha);
  const double ab = std::max(g.nodes[b].alpha, kMinAlpha);
  MergeNode n;
  n.left = a;
  n.right = b;
  const StepModel ma{aa, g.nodes[a].beta};
  const StepModel mb{ab, g.nodes[b].beta};
  // Parent-child: d_a/d_b = sqrt(aa/ab). Siblings: d_a/d_b = aa/ab.
  const StepModel merged = intra ? merge_intra_path(ma, mb) : merge_inter_path(ma, mb);
  n.alpha = merged.alpha;
  n.beta = merged.beta;
  if (intra) {
    const double sa = std::sqrt(aa), sb = std::sqrt(ab);
    n.left_frac = sa / (sa + sb);
  } else {
    n.left_frac = aa / (aa + ab);
  }
  return g.add_node(n);
}

void assign_dops(const WorkGraph& g, int node, double d, std::vector<double>& out) {
  const MergeNode& n = g.nodes[node];
  if (n.leaf != kNoStage) {
    out[n.leaf] = d;
    return;
  }
  assign_dops(g, n.left, d * n.left_frac, out);
  assign_dops(g, n.right, d * (1.0 - n.left_frac), out);
}

}  // namespace

std::vector<int> round_dops(const std::vector<double>& continuous, int total_slots) {
  std::vector<int> dop(continuous.size());
  int sum = 0;
  for (std::size_t i = 0; i < continuous.size(); ++i) {
    dop[i] = std::max(1, static_cast<int>(std::floor(continuous[i])));
    sum += dop[i];
  }
  // The min-1 floor can overshoot C when many stages round to zero;
  // shave the largest entries (never below 1) to repair.
  while (sum > total_slots) {
    const auto it = std::max_element(dop.begin(), dop.end());
    if (*it <= 1) break;  // cannot repair: C < number of stages
    --*it;
    --sum;
  }
  return dop;
}

Result<DopResult> DoPRatioComputer::compute_jct(int total_slots) const {
  const JobDag& dag = predictor_->dag();
  const std::size_t n = dag.num_stages();
  if (n == 0) return Status::invalid_argument("empty DAG");
  if (total_slots < static_cast<int>(n)) {
    return Status::resource_exhausted("fewer slots than stages");
  }

  WorkGraph g;
  std::vector<int> stage_node(n);
  for (StageId s = 0; s < n; ++s) {
    const StepModel m = predictor_->stage_model(s, colocated_);
    MergeNode node;
    node.alpha = std::max(m.alpha, kMinAlpha);
    node.beta = m.beta;
    node.leaf = s;
    stage_node[s] = g.add_node(node);
    g.live.insert(stage_node[s]);
  }
  for (const Edge& e : dag.edges()) {
    // Edge src -> dst: src is upstream, dst is the paper's "parent".
    g.down[stage_node[e.src]].insert(stage_node[e.dst]);
    g.up[stage_node[e.dst]].insert(stage_node[e.src]);
  }

  // Bottom-up reduction: repeatedly take the deepest live node, merge
  // all of its parent's upstream nodes (siblings, inter-path), then
  // merge the result with the parent (intra-path).
  while (g.live.size() > 1) {
    // Deepest live node with a downstream parent.
    int s = -1, s_depth = -1;
    for (int v : g.live) {
      if (g.down[v].empty()) continue;
      const int d = g.depth(v);
      if (d > s_depth) {
        s_depth = d;
        s = v;
      }
    }
    if (s < 0) {
      // Only disconnected roots remain (multi-sink DAG): they execute
      // in parallel, so fold them with the inter-path rule.
      auto it = g.live.begin();
      const int a = *it++;
      const int b = *it;
      const int v = merge_pair(g, a, b, /*intra=*/false);
      g.replace({a, b}, v);
      continue;
    }
    // Designated parent: the deepest downstream node (ties: smallest id).
    int sp = -1, sp_depth = -1;
    for (int d : g.down[s]) {
      const int dd = g.depth(d);
      if (dd > sp_depth || (dd == sp_depth && d < sp)) {
        sp_depth = dd;
        sp = d;
      }
    }
    assert(sp >= 0);

    // Siblings: every upstream node of sp (they all run in parallel
    // before sp can start).
    std::vector<int> sib(g.up[sp].begin(), g.up[sp].end());
    std::set<int> merged(sib.begin(), sib.end());
    int combined = sib[0];
    for (std::size_t i = 1; i < sib.size(); ++i) {
      combined = merge_pair(g, combined, sib[i], /*intra=*/false);
    }
    const int v = merge_pair(g, combined, sp, /*intra=*/true);
    merged.insert(sp);
    g.replace(merged, v);
  }

  const int root = *g.live.begin();
  DopResult out;
  out.continuous.assign(n, 0.0);
  assign_dops(g, root, static_cast<double>(total_slots), out.continuous);
  out.dop = round_dops(out.continuous, total_slots);
  return out;
}

Result<DopResult> DoPRatioComputer::compute_cost(int total_slots) const {
  const JobDag& dag = predictor_->dag();
  const std::size_t n = dag.num_stages();
  if (n == 0) return Status::invalid_argument("empty DAG");
  if (total_slots < static_cast<int>(n)) {
    return Status::resource_exhausted("fewer slots than stages");
  }
  // Minimizing sum_i rho_i alpha_i / d_i subject to sum d_i = C is the
  // intra-path problem with alpha_i' = rho_i alpha_i (paper §4.2):
  // d_i proportional to sqrt(rho_i alpha_i).
  std::vector<double> weight(n);
  double norm = 0.0;
  for (StageId s = 0; s < n; ++s) {
    const StepModel m = predictor_->stage_model(s, colocated_);
    const double a = std::max(m.alpha, kMinAlpha) * std::max(dag.stage(s).rho(), kMinAlpha);
    weight[s] = std::sqrt(a);
    norm += weight[s];
  }
  DopResult out;
  out.continuous.resize(n);
  for (StageId s = 0; s < n; ++s) {
    out.continuous[s] = weight[s] / norm * static_cast<double>(total_slots);
  }
  out.dop = round_dops(out.continuous, total_slots);
  return out;
}

}  // namespace ditto::scheduler
