#include "scheduler/placement_check.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace ditto::scheduler {

DisjointSets::DisjointSets(std::size_t n) : parent_(n) {
  std::iota(parent_.begin(), parent_.end(), 0);
}

std::size_t DisjointSets::find(std::size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

namespace {

/// Placement units of one stage group, all of `slots` slots: one unit
/// carrying every task of every member, or (a decomposed gather group)
/// `count` units, unit t carrying task t of each member.
struct Units {
  std::size_t root;  ///< the group's union-find root
  int slots;
  int count;
  bool per_task;
};

bool valid_dops(const JobDag& dag, const std::vector<int>& dop) {
  if (dop.size() != dag.num_stages()) return false;
  return std::all_of(dop.begin(), dop.end(), [](int d) { return d >= 1; });
}

/// The best fit shared by place() and fits(). Returns 0 when every
/// task fits (recording each task's server in `plan` when it is not
/// null), the size of the first group no server fits, or -1 when the
/// ungrouped stages run out of slots.
int best_fit(const JobDag& dag, const std::vector<int>& dop,
             const std::vector<EdgeRef>& grouped, const std::vector<int>& free_slots,
             cluster::PlacementPlan* plan) {
  const std::size_t n = dag.num_stages();

  // 1. Group stages connected by grouped edges; `members` lists each
  // group's stages in id order, group after group by root.
  DisjointSets sets(n);
  for (const EdgeRef& er : grouped) sets.unite(er.first, er.second);
  std::vector<std::size_t> root(n);
  std::vector<std::size_t> begin(n + 1, 0);
  for (StageId s = 0; s < n; ++s) {
    root[s] = sets.find(s);
    ++begin[root[s] + 1];
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<StageId> members(n);
  {
    std::vector<std::size_t> next(begin.begin(), begin.end() - 1);
    for (StageId s = 0; s < n; ++s) members[next[root[s]]++] = s;
  }

  // 2. Build placement units. Gather decomposition (paper §4.5): if
  // every grouped edge inside a group is a gather and all member DoPs
  // match, the group splits into per-task units.
  std::vector<char> decomposable(n, 1);
  for (const EdgeRef& er : grouped) {
    const Edge* e = dag.find_edge(er.first, er.second);
    assert(e != nullptr);
    if (e->exchange != ExchangeKind::kGather) decomposable[root[er.first]] = 0;
  }
  std::vector<Units> units;
  std::vector<StageId> singles;
  units.reserve(n);
  singles.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t size = begin[r + 1] - begin[r];
    if (size == 0) continue;
    if (size == 1) {
      singles.push_back(members[begin[r]]);
      continue;
    }
    const int first_dop = dop[members[begin[r]]];
    int slots = 0;
    for (std::size_t i = begin[r]; i < begin[r + 1]; ++i) {
      if (dop[members[i]] != first_dop) decomposable[r] = 0;
      slots += dop[members[i]];
    }
    if (decomposable[r]) {
      units.push_back(Units{r, static_cast<int>(size), first_dop, true});
    } else {
      units.push_back(Units{r, slots, 1, false});
    }
  }

  // 3. Best-fit the units, largest first: each onto the server whose
  // free slots exceed its size by the least (lowest index on ties).
  // That server stays the best fit for the group's next equal unit
  // while it still holds one, so such units are placed in one run.
  std::vector<int> remaining = free_slots;
  std::stable_sort(units.begin(), units.end(),
                   [](const Units& a, const Units& b) { return a.slots > b.slots; });
  for (const Units& u : units) {
    for (int t = 0; t < u.count;) {
      int best = -1;
      for (std::size_t srv = 0; srv < remaining.size(); ++srv) {
        if (remaining[srv] < u.slots) continue;
        if (best < 0 || remaining[srv] < remaining[best]) best = static_cast<int>(srv);
      }
      if (best < 0) return u.slots;
      const int run = std::min(u.count - t, remaining[best] / u.slots);
      remaining[best] -= run * u.slots;
      if (plan != nullptr) {
        for (std::size_t i = begin[u.root]; i < begin[u.root + 1]; ++i) {
          std::vector<ServerId>& tasks = plan->task_server[members[i]];
          const auto first = u.per_task ? tasks.begin() + t : tasks.begin();
          std::fill(first, u.per_task ? first + run : tasks.end(), static_cast<ServerId>(best));
        }
      }
      t += run;
    }
  }

  // 4. Scatter ungrouped stages' tasks over whatever is left, filling
  // servers in index order.
  std::size_t cursor = 0;
  for (StageId s : singles) {
    for (int t = 0; t < dop[s];) {
      while (cursor < remaining.size() && remaining[cursor] <= 0) ++cursor;
      if (cursor >= remaining.size()) return -1;
      const int run = std::min(dop[s] - t, remaining[cursor]);
      remaining[cursor] -= run;
      if (plan != nullptr) {
        std::vector<ServerId>& tasks = plan->task_server[s];
        std::fill(tasks.begin() + t, tasks.begin() + t + run, static_cast<ServerId>(cursor));
      }
      t += run;
    }
  }
  return 0;
}

}  // namespace

Result<cluster::PlacementPlan> PlacementChecker::place(const std::vector<int>& dop,
                                                       const std::vector<EdgeRef>& grouped,
                                                       const std::vector<int>& free_slots) const {
  if (dop.size() != dag_->num_stages()) {
    return Status::invalid_argument("dop vector not sized to DAG");
  }
  if (!valid_dops(*dag_, dop)) return Status::invalid_argument("stage with DoP < 1");

  cluster::PlacementPlan plan;
  plan.dop = dop;
  plan.task_server.resize(dop.size());
  for (StageId s = 0; s < dop.size(); ++s) plan.task_server[s].assign(dop[s], kNoServer);
  plan.zero_copy_edges = grouped;
  const int unplaced = best_fit(*dag_, dop, grouped, free_slots, &plan);
  if (unplaced > 0) {
    return Status::resource_exhausted("no server fits a stage group of " +
                                      std::to_string(unplaced) + " slots");
  }
  if (unplaced < 0) {
    return Status::resource_exhausted("cluster out of slots for ungrouped stages");
  }
  return plan;
}

bool PlacementChecker::fits(const std::vector<int>& dop, const std::vector<EdgeRef>& grouped,
                            const std::vector<int>& free_slots) const {
  return valid_dops(*dag_, dop) && best_fit(*dag_, dop, grouped, free_slots, nullptr) == 0;
}

}  // namespace ditto::scheduler
