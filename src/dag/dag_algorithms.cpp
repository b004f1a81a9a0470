#include "dag/dag_algorithms.h"

#include <algorithm>
#include <cassert>

namespace ditto {

std::vector<StageId> topological_order(const JobDag& dag) {
  const std::size_t n = dag.num_stages();
  std::vector<std::size_t> indeg(n, 0);
  for (const Edge& e : dag.edges()) ++indeg[e.dst];
  std::vector<StageId> ready;
  for (StageId i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(i);
  }
  std::vector<StageId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const StageId cur = ready.back();
    ready.pop_back();
    order.push_back(cur);
    for (StageId c : dag.children(cur)) {
      if (--indeg[c] == 0) ready.push_back(c);
    }
  }
  assert(order.size() == n && "topological_order on cyclic graph");
  return order;
}

DagTopology::DagTopology(const JobDag& dag)
    : dag_(&dag), order_(topological_order(dag)), sinks_(dag.sinks()) {
  const std::size_t n = dag.num_stages();
  const std::vector<Edge>& edges = dag.edges();
  out_edges_.resize(n);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    out_edges_[edges[i].src].push_back(static_cast<int>(i));
  }
  in_edges_.resize(n);
  for (StageId s = 0; s < n; ++s) {
    for (StageId p : dag.parents(s)) in_edges_[s].push_back(edge_index(p, s));
  }
}

int DagTopology::edge_index(StageId src, StageId dst) const {
  if (src >= out_edges_.size()) return -1;
  for (int e : out_edges_[src]) {
    if (dag_->edges()[e].dst == dst) return e;
  }
  return -1;
}

EdgeFlags DagTopology::flags_of(const std::vector<EdgeRef>& edges) const {
  EdgeFlags flags(dag_->num_edges(), 0);
  for (const auto& [src, dst] : edges) {
    const int e = edge_index(src, dst);
    if (e >= 0) flags[e] = 1;
  }
  return flags;
}

void DagTopology::critical_path(const std::vector<double>& node_w,
                                const std::vector<double>& edge_w, CriticalPath& out) const {
  const JobDag& dag = *dag_;
  assert(dag.num_stages() > 0);
  out.best.resize(dag.num_stages());
  out.via.resize(dag.num_stages());
  for (StageId s : order_) {
    const std::vector<StageId>& parents = dag.parents(s);
    const std::vector<int>& in = in_edges_[s];
    double incoming = 0.0;
    int from = -1;
    for (std::size_t k = 0; k < parents.size(); ++k) {
      const double cand = out.best[parents[k]] + edge_w[in[k]];
      if (cand > incoming || from < 0) {
        incoming = cand;
        from = in[k];
      }
    }
    out.best[s] = incoming + node_w[s];
    out.via[s] = from;
  }
  out.tail = sinks_.front();
  for (StageId s : sinks_) {
    if (out.best[s] > out.best[out.tail]) out.tail = s;
  }
  out.length = out.best[out.tail];
  out.edges.clear();
  for (int e = out.via[out.tail]; e >= 0; e = out.via[dag.edges()[e].src]) out.edges.push_back(e);
  std::reverse(out.edges.begin(), out.edges.end());
}

namespace {

/// FNV-1a over a byte sequence, seeded with the running hash.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  h = fnv1a(h, s.data(), s.size());
  // Length delimiter so ("ab","c") != ("a","bc").
  const std::uint64_t len = s.size();
  return fnv1a(h, &len, sizeof(len));
}

}  // namespace

Result<DagPruning> prune_completed_stages(const JobDag& dag,
                                          const std::vector<bool>& completed) {
  const std::size_t n = dag.num_stages();
  if (completed.size() != n) {
    return Status::invalid_argument("completed mask has " + std::to_string(completed.size()) +
                                    " entries for a " + std::to_string(n) + "-stage DAG");
  }

  // A stage still executes iff it is uncached and some uncached sink
  // depends on it through uncached stages only (a cached consumer cuts
  // the dependency: its output is served, not recomputed). Walk in
  // reverse topological order so children resolve first.
  std::vector<bool> needed(n, false);
  const std::vector<StageId> topo = topological_order(dag);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const StageId s = *it;
    if (completed[s]) continue;
    if (dag.children(s).empty()) {
      needed[s] = true;
      continue;
    }
    for (const StageId c : dag.children(s)) {
      if (needed[c]) {
        needed[s] = true;
        break;
      }
    }
  }
  if (std::find(needed.begin(), needed.end(), true) == needed.end()) {
    return Status::invalid_argument(
        "every sink is completed: whole-job hit, nothing to prune");
  }

  // Completed stages a remaining stage still reads become replay
  // sources. Replaying across a gather edge would misroute rows (1:1
  // task mapping under a different DoP) — refuse rather than corrupt.
  std::vector<bool> replay(n, false);
  for (const Edge& e : dag.edges()) {
    if (!completed[e.src] || !needed[e.dst]) continue;
    if (e.exchange == ExchangeKind::kGather) {
      return Status::invalid_argument("stage '" + dag.stage(e.src).name() +
                                      "' feeds a gather edge and cannot be replayed from "
                                      "cache");
    }
    replay[e.src] = true;
  }

  DagPruning out;
  out.dag = JobDag(dag.name());
  out.to_new.assign(n, kNoStage);
  for (StageId s = 0; s < n; ++s) {
    if (!needed[s] && !replay[s]) {
      ++out.num_dropped;
      continue;
    }
    const Stage& old = dag.stage(s);
    const StageId ns = out.dag.add_stage(replay[s] ? old.name() + "~cached" : old.name());
    out.to_old.push_back(s);
    out.to_new[s] = ns;
    out.is_replay.push_back(replay[s]);
    if (replay[s]) ++out.num_replay;
    Stage& fresh = out.dag.stage(ns);
    fresh.set_op(replay[s] ? "cached" : old.op());
    fresh.set_input_bytes(replay[s] ? 0 : old.input_bytes());
    fresh.set_output_bytes(old.output_bytes());
    fresh.set_rho(old.rho());
    fresh.set_sigma(old.sigma());
    fresh.set_base_memory_bytes(old.base_memory_bytes());
    fresh.set_straggler_scale(old.straggler_scale());
  }

  // Steps: keep what the pruned run actually performs, deps remapped.
  // A replay source only writes; reads from dropped/replayed producers
  // and writes toward completed consumers vanish with their edges.
  for (StageId ns = 0; ns < out.dag.num_stages(); ++ns) {
    const Stage& old = dag.stage(out.to_old[ns]);
    Stage& fresh = out.dag.stage(ns);
    for (const Step& step : old.steps()) {
      Step copy = step;
      if (step.dep != kNoStage) {
        const StageId dep = out.to_new[step.dep];
        const bool dep_runs = dep != kNoStage && !out.is_replay[dep];
        if (step.kind == StepKind::kRead) {
          if (out.is_replay[ns] || dep == kNoStage) continue;
        } else if (step.kind == StepKind::kWrite) {
          if (!dep_runs) continue;  // consumer is served from cache
        }
        copy.dep = dep;
      } else if (out.is_replay[ns] && step.kind != StepKind::kWrite) {
        continue;  // replay reads nothing and computes nothing
      }
      fresh.add_step(copy);
    }
  }

  for (const Edge& e : dag.edges()) {
    if (out.to_new[e.src] == kNoStage || !needed[e.dst]) continue;
    DITTO_RETURN_IF_ERROR(
        out.dag.add_edge(out.to_new[e.src], out.to_new[e.dst], e.exchange, e.bytes));
  }
  DITTO_RETURN_IF_ERROR(out.dag.validate());
  return out;
}

std::uint64_t structural_fingerprint(const JobDag& dag) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  const std::uint64_t stages = dag.num_stages();
  h = fnv1a(h, &stages, sizeof(stages));
  for (const Stage& s : dag.stages()) {
    h = fnv1a_str(h, s.name());
    h = fnv1a_str(h, s.op());
  }
  for (const Edge& e : dag.edges()) {
    const std::uint64_t packed = (static_cast<std::uint64_t>(e.src) << 40) |
                                 (static_cast<std::uint64_t>(e.dst) << 8) |
                                 static_cast<std::uint64_t>(e.exchange);
    h = fnv1a(h, &packed, sizeof(packed));
  }
  return h;
}

}  // namespace ditto
