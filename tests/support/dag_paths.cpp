#include "support/dag_paths.h"

#include <algorithm>

namespace ditto {

std::vector<int> stage_depths(const JobDag& dag) {
  const auto order = topological_order(dag);
  std::vector<int> depth(dag.num_stages(), 0);
  // Process in reverse topological order so children are final first.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const StageId s = *it;
    int d = 0;
    for (StageId c : dag.children(s)) d = std::max(d, depth[c] + 1);
    depth[s] = d;
  }
  return depth;
}

int max_depth(const JobDag& dag) {
  int m = 0;
  for (int d : stage_depths(dag)) m = std::max(m, d);
  return m;
}

namespace {
void dfs_paths(const JobDag& dag, StageId cur, std::vector<StageId>& path,
               std::vector<std::vector<StageId>>& out, std::size_t max_paths) {
  if (out.size() >= max_paths) return;
  path.push_back(cur);
  if (dag.children(cur).empty()) {
    out.push_back(path);
  } else {
    for (StageId c : dag.children(cur)) dfs_paths(dag, c, path, out, max_paths);
  }
  path.pop_back();
}
}  // namespace

std::vector<std::vector<StageId>> enumerate_paths(const JobDag& dag, std::size_t max_paths) {
  std::vector<std::vector<StageId>> out;
  std::vector<StageId> path;
  for (StageId s : dag.sources()) dfs_paths(dag, s, path, out, max_paths);
  return out;
}

}  // namespace ditto
