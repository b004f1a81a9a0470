#include "scheduler/dop_ratio.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "timemodel/step_model.h"

namespace ditto::scheduler {

namespace {

// Guard against degenerate stages whose effective alpha collapsed to
// zero (e.g. every IO step zero-copied and negligible compute): they
// still need one slot, and ratios must stay finite.
constexpr double kMinAlpha = 1e-9;

/// The virtual-stage graph Algorithm 1 reduces: shape only. Node ids
/// are stages, then merges in creation order; `live` and every
/// adjacency list are sorted ascending, so every walk visits nodes in
/// id order.
struct WorkGraph {
  std::vector<int> live;                   // node ids still in the graph
  std::vector<std::vector<int>> up, down;  // adjacency among live nodes
  std::vector<int> depth_memo;             // this round's depths; -1 = not yet known

  int add_node() {
    up.emplace_back();
    down.emplace_back();
    return static_cast<int>(up.size()) - 1;
  }

  static bool contains(const std::vector<int>& set, int x) {
    return std::binary_search(set.begin(), set.end(), x);
  }
  static void insert(std::vector<int>& set, int x) {
    const auto it = std::lower_bound(set.begin(), set.end(), x);
    if (it == set.end() || *it != x) set.insert(it, x);
  }
  static void erase(std::vector<int>& set, int x) {
    const auto it = std::lower_bound(set.begin(), set.end(), x);
    if (it != set.end() && *it == x) set.erase(it);
  }

  bool reaches(int from, int to) const {
    std::vector<int> stack{from};
    std::vector<char> seen(up.size(), 0);
    seen[from] = 1;
    while (!stack.empty()) {
      const int cur = stack.back();
      stack.pop_back();
      if (cur == to) return true;
      for (int d : down[cur]) {
        if (!seen[d]) {
          seen[d] = 1;
          stack.push_back(d);
        }
      }
    }
    return false;
  }

  /// Forgets the previous round's depths (its merges changed them).
  void new_round() { depth_memo.assign(up.size(), -1); }

  /// Longest distance (in edges) from `v` downstream to any sink.
  int depth(int v) {
    if (depth_memo[v] >= 0) return depth_memo[v];
    int best = 0;
    for (int d : down[v]) best = std::max(best, depth(d) + 1);
    depth_memo[v] = best;
    return best;
  }

  /// Records merging `a` and `b` and returns the new node's id.
  int merge(std::vector<Merge>& order, int a, int b, bool intra) {
    order.push_back(Merge{a, b, intra});
    return add_node();
  }

  /// Replace the nodes in `merged` (sorted) with `v`, re-attaching
  /// external edges (skipping any that would create a cycle).
  void replace(const std::vector<int>& merged, int v) {
    std::vector<int> new_up, new_down;
    for (int m : merged) {
      for (int u : up[m]) {
        if (!contains(merged, u)) insert(new_up, u);
      }
      for (int d : down[m]) {
        if (!contains(merged, d)) insert(new_down, d);
      }
      erase(live, m);
    }
    insert(live, v);
    // Drop edges into merged nodes. Adjacency is symmetric, so only
    // their external neighbours hold any.
    for (const std::vector<int>* side : {&new_up, &new_down}) {
      for (int n : *side) {
        for (int m : merged) {
          erase(up[n], m);
          erase(down[n], m);
        }
      }
    }
    for (int u : new_up) {
      insert(up[v], u);
      insert(down[u], v);
    }
    for (int d : new_down) {
      if (contains(up[v], d) || reaches(d, v)) continue;  // avoid cycles
      insert(down[v], d);
      insert(up[d], v);
    }
  }
};

/// A virtual stage's merged model and how its DoP splits.
struct MergeNode {
  double alpha = 0.0;
  double beta = 0.0;
  double left_frac = 0.0;  ///< share of this node's DoP given to the merge's left side
};

MergeNode merge_nodes(const MergeNode& a, const MergeNode& b, bool intra) {
  const double aa = std::max(a.alpha, kMinAlpha);
  const double ab = std::max(b.alpha, kMinAlpha);
  const StepModel ma{aa, a.beta};
  const StepModel mb{ab, b.beta};
  // Parent-child: d_a/d_b = sqrt(aa/ab). Siblings: d_a/d_b = aa/ab.
  const StepModel merged = intra ? merge_intra_path(ma, mb) : merge_inter_path(ma, mb);
  MergeNode n;
  n.alpha = merged.alpha;
  n.beta = merged.beta;
  if (intra) {
    const double sa = std::sqrt(aa), sb = std::sqrt(ab);
    n.left_frac = sa / (sa + sb);
  } else {
    n.left_frac = aa / (aa + ab);
  }
  return n;
}

void assign_dops(const std::vector<Merge>& merges, const std::vector<MergeNode>& nodes,
                 int node, double d, std::vector<double>& out) {
  const std::size_t n = out.size();
  if (static_cast<std::size_t>(node) < n) {
    out[node] = d;
    return;
  }
  const Merge& m = merges[node - n];
  assign_dops(merges, nodes, m.left, d * nodes[node].left_frac, out);
  assign_dops(merges, nodes, m.right, d * (1.0 - nodes[node].left_frac), out);
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

std::vector<Merge> merge_order(const JobDag& dag) {
  const std::size_t n = dag.num_stages();
  std::vector<Merge> order;
  WorkGraph g;
  for (StageId s = 0; s < n; ++s) g.live.push_back(g.add_node());  // node id == stage id
  for (const Edge& e : dag.edges()) {
    // Edge src -> dst: src is upstream, dst is the paper's "parent".
    WorkGraph::insert(g.down[e.src], static_cast<int>(e.dst));
    WorkGraph::insert(g.up[e.dst], static_cast<int>(e.src));
  }

  // Bottom-up reduction: repeatedly take the deepest live node, merge
  // all of its parent's upstream nodes (siblings, inter-path), then
  // merge the result with the parent (intra-path).
  while (g.live.size() > 1) {
    g.new_round();
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
      const int a = g.live[0];
      const int b = g.live[1];
      g.replace({a, b}, g.merge(order, a, b, /*intra=*/false));
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
    const std::vector<int> sib = g.up[sp];
    std::vector<int> merged = sib;
    WorkGraph::insert(merged, sp);
    int combined = sib[0];
    for (std::size_t i = 1; i < sib.size(); ++i) {
      combined = g.merge(order, combined, sib[i], /*intra=*/false);
    }
    g.replace(merged, g.merge(order, combined, sp, /*intra=*/true));
  }
  return order;
}

Result<DopResult> optimal_dops(const JobDag& dag, const std::vector<Merge>& merges,
                               const std::vector<StepModel>& models, Objective objective,
                               int total_slots) {
  const std::size_t n = dag.num_stages();
  if (n == 0) return Status::invalid_argument("empty DAG");
  if (total_slots < static_cast<int>(n)) {
    return Status::resource_exhausted("fewer slots than stages");
  }
  DopResult out;
  if (objective == Objective::kCost) {
    // Minimizing sum_i rho_i alpha_i / d_i subject to sum d_i = C is the
    // intra-path problem with alpha_i' = rho_i alpha_i (paper §4.2):
    // d_i proportional to sqrt(rho_i alpha_i).
    std::vector<double> weight(n);
    double norm = 0.0;
    for (StageId s = 0; s < n; ++s) {
      const double a =
          std::max(models[s].alpha, kMinAlpha) * std::max(dag.stage(s).rho(), kMinAlpha);
      weight[s] = std::sqrt(a);
      norm += weight[s];
    }
    out.continuous.resize(n);
    for (StageId s = 0; s < n; ++s) {
      out.continuous[s] = weight[s] / norm * static_cast<double>(total_slots);
    }
    out.dop = round_dops(out.continuous, total_slots);
    return out;
  }

  // Replay the merges on this view's models, then unwind the recorded
  // split ratios from the root (the last merge) down to the stages.
  std::vector<MergeNode> nodes(n + merges.size());
  for (StageId s = 0; s < n; ++s) {
    nodes[s].alpha = std::max(models[s].alpha, kMinAlpha);
    nodes[s].beta = models[s].beta;
  }
  for (std::size_t k = 0; k < merges.size(); ++k) {
    nodes[n + k] = merge_nodes(nodes[merges[k].left], nodes[merges[k].right], merges[k].intra);
  }
  out.continuous.assign(n, 0.0);
  assign_dops(merges, nodes, static_cast<int>(nodes.size()) - 1,
              static_cast<double>(total_slots), out.continuous);
  out.dop = round_dops(out.continuous, total_slots);
  return out;
}

}  // namespace ditto::scheduler
