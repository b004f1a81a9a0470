#include "scheduler/placement_check.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"

namespace ditto::scheduler {
namespace {

JobDag chain3(ExchangeKind kind = ExchangeKind::kShuffle) {
  JobDag dag("c3");
  for (const char* n : {"a", "b", "c"}) dag.add_stage(n);
  EXPECT_TRUE(dag.add_edge(0, 1, kind).is_ok());
  EXPECT_TRUE(dag.add_edge(1, 2, kind).is_ok());
  return dag;
}

TEST(PlacementCheckTest, UngroupedStagesScatter) {
  const JobDag dag = chain3();
  const PlacementChecker checker(dag);
  const auto plan = checker.place({3, 2, 1}, {}, {4, 2});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->dop, (std::vector<int>{3, 2, 1}));
  int used = 0;
  for (const auto& ts : plan->task_server) used += static_cast<int>(ts.size());
  EXPECT_EQ(used, 6);
}

TEST(PlacementCheckTest, FailsWhenTotalSlotsShort) {
  const JobDag dag = chain3();
  const PlacementChecker checker(dag);
  EXPECT_FALSE(checker.place({3, 3, 3}, {}, {4, 2}).ok());
}

TEST(PlacementCheckTest, GroupMustFitOneServer) {
  const JobDag dag = chain3();
  const PlacementChecker checker(dag);
  // Group (a,b): 3 + 3 = 6 slots; largest server has 5 -> fail.
  EXPECT_FALSE(checker.place({3, 3, 1}, {{0, 1}}, {5, 4}).ok());
  // With a 6-slot server it fits.
  const auto plan = checker.place({3, 3, 1}, {{0, 1}}, {6, 4});
  ASSERT_TRUE(plan.ok());
  // All of a's and b's tasks share one server.
  std::set<ServerId> servers(plan->task_server[0].begin(), plan->task_server[0].end());
  servers.insert(plan->task_server[1].begin(), plan->task_server[1].end());
  EXPECT_EQ(servers.size(), 1u);
}

TEST(PlacementCheckTest, BestFitPicksTightestServer) {
  const JobDag dag = chain3();
  const PlacementChecker checker(dag);
  // Group (a,b) needs 4; servers {10, 4}: best fit is server 1.
  const auto plan = checker.place({2, 2, 1}, {{0, 1}}, {10, 4});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->task_server[0][0], 1u);
  EXPECT_EQ(plan->task_server[1][0], 1u);
}

TEST(PlacementCheckTest, GatherGroupsDecomposeAcrossServers) {
  // Gather edges with equal DoPs decompose into per-task units
  // (paper §4.5 Fig. 7), so a 3+3 group fits into two 3-slot servers.
  const JobDag dag = chain3(ExchangeKind::kGather);
  const PlacementChecker checker(dag);
  const auto plan = checker.place({3, 3, 3}, {{0, 1}}, {3, 3, 3});
  ASSERT_TRUE(plan.ok());
  // Each producer/consumer task pair shares a server.
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(plan->task_server[0][t], plan->task_server[1][t]);
  }
}

TEST(PlacementCheckTest, ShuffleGroupsDoNotDecompose) {
  const JobDag dag = chain3(ExchangeKind::kShuffle);
  const PlacementChecker checker(dag);
  // Same sizes as above but shuffle: 6-slot unit cannot split.
  EXPECT_FALSE(checker.place({3, 3, 3}, {{0, 1}}, {3, 3, 3}).ok());
}

TEST(PlacementCheckTest, UnequalDopGatherStaysAtomic) {
  const JobDag dag = chain3(ExchangeKind::kGather);
  const PlacementChecker checker(dag);
  // DoPs differ -> no decomposition -> needs a 5-slot server.
  EXPECT_FALSE(checker.place({3, 2, 1}, {{0, 1}}, {4, 4}).ok());
  EXPECT_TRUE(checker.place({3, 2, 1}, {{0, 1}}, {5, 4}).ok());
}

TEST(PlacementCheckTest, TransitiveGroupsUnion) {
  const JobDag dag = chain3();
  const PlacementChecker checker(dag);
  // Grouping both edges makes {a,b,c} one 6-slot unit.
  EXPECT_FALSE(checker.place({2, 2, 2}, {{0, 1}, {1, 2}}, {5, 5}).ok());
  const auto plan = checker.place({2, 2, 2}, {{0, 1}, {1, 2}}, {6, 5});
  ASSERT_TRUE(plan.ok());
  std::set<ServerId> servers;
  for (StageId s = 0; s < 3; ++s) {
    servers.insert(plan->task_server[s].begin(), plan->task_server[s].end());
  }
  EXPECT_EQ(servers.size(), 1u);
}

TEST(PlacementCheckTest, RejectsInvalidDop) {
  const JobDag dag = chain3();
  const PlacementChecker checker(dag);
  EXPECT_FALSE(checker.place({0, 1, 1}, {}, {8}).ok());
  EXPECT_FALSE(checker.place({1, 1}, {}, {8}).ok());  // wrong size
}

TEST(PlacementCheckTest, PlanValidatesAgainstCluster) {
  const JobDag dag = chain3();
  const PlacementChecker checker(dag);
  auto cl = cluster::Cluster::uniform(2, 4);
  const auto plan = checker.place({2, 2, 2}, {{0, 1}}, cl.free_slot_snapshot());
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->validate(dag, cl).is_ok());
}

/// Per-task best fit, one unit at a time: the placement rule of paper
/// §4.4/§4.5 written out longhand, as an oracle for place()'s batched
/// runs. Empty when the configuration does not fit.
std::vector<std::vector<ServerId>> reference_placement(const JobDag& dag,
                                                       const std::vector<int>& dop,
                                                       const std::vector<EdgeRef>& grouped,
                                                       std::vector<int> remaining) {
  const std::size_t n = dag.num_stages();
  std::vector<std::size_t> group(n);
  for (std::size_t s = 0; s < n; ++s) group[s] = s;
  const auto find = [&](std::size_t s) {
    while (group[s] != s) s = group[s];
    return s;
  };
  for (const auto& [a, b] : grouped) group[find(a)] = find(b);
  struct Unit {
    std::vector<StageId> stages;
    int task = -1;  // -1: every task of every stage
    int slots = 0;
  };
  std::vector<Unit> units;
  std::vector<StageId> singles;
  for (std::size_t root = 0; root < n; ++root) {
    std::vector<StageId> members;
    for (StageId s = 0; s < n; ++s) {
      if (find(s) == root) members.push_back(s);
    }
    if (members.empty()) continue;
    if (members.size() == 1) {
      singles.push_back(members[0]);
      continue;
    }
    bool gather = true;
    for (const auto& [a, b] : grouped) {
      if (find(a) == root && dag.find_edge(a, b)->exchange != ExchangeKind::kGather) {
        gather = false;
      }
    }
    for (StageId s : members) gather = gather && dop[s] == dop[members[0]];
    if (gather) {
      for (int t = 0; t < dop[members[0]]; ++t) {
        units.push_back({members, t, static_cast<int>(members.size())});
      }
    } else {
      int slots = 0;
      for (StageId s : members) slots += dop[s];
      units.push_back({members, -1, slots});
    }
  }
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) { return a.slots > b.slots; });
  std::vector<std::vector<ServerId>> out(n);
  for (StageId s = 0; s < n; ++s) out[s].assign(dop[s], kNoServer);
  for (const Unit& u : units) {
    int best = -1;
    for (std::size_t srv = 0; srv < remaining.size(); ++srv) {
      if (remaining[srv] < u.slots) continue;
      if (best < 0 || remaining[srv] < remaining[best]) best = static_cast<int>(srv);
    }
    if (best < 0) return {};
    remaining[best] -= u.slots;
    for (StageId s : u.stages) {
      for (int t = 0; t < dop[s]; ++t) {
        if (u.task < 0 || u.task == t) out[s][t] = static_cast<ServerId>(best);
      }
    }
  }
  std::size_t cursor = 0;
  for (StageId s : singles) {
    for (int t = 0; t < dop[s]; ++t) {
      while (cursor < remaining.size() && remaining[cursor] == 0) ++cursor;
      if (cursor == remaining.size()) return {};
      --remaining[cursor];
      out[s][t] = static_cast<ServerId>(cursor);
    }
  }
  return out;
}

TEST(PlacementCheckTest, FitsAgreesWithPlaceOnRandomCorpus) {
  // Random DAGs with gather and shuffle edges, random DoPs (often equal,
  // so gather groups decompose), random grouped subsets, and free-slot
  // vectors with zeros. fits() must agree with place().ok(), and place()
  // must match the per-task best fit task for task.
  Rng rng(20260);
  int fitting = 0, decomposed = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 9));
    JobDag dag("random");
    for (int s = 0; s < n; ++s) dag.add_stage("s" + std::to_string(s));
    std::vector<EdgeRef> edges;
    for (int dst = 1; dst < n; ++dst) {
      for (int src = 0; src < dst; ++src) {
        if (src + 1 != dst && !rng.coin(0.25)) continue;  // a chain plus extras
        const ExchangeKind kind = rng.coin(0.5) ? ExchangeKind::kGather : ExchangeKind::kShuffle;
        ASSERT_TRUE(dag.add_edge(src, dst, kind).is_ok());
        edges.emplace_back(src, dst);
      }
    }
    std::vector<int> dop(n);
    const int shared = static_cast<int>(rng.uniform_int(1, 6));
    const bool equal = rng.coin(0.5);
    for (int& d : dop) d = equal ? shared : static_cast<int>(rng.uniform_int(1, 6));
    std::vector<EdgeRef> grouped;
    for (const EdgeRef& e : edges) {
      if (rng.coin(0.4)) grouped.push_back(e);
    }
    rng.shuffle(grouped);
    std::vector<int> free(static_cast<std::size_t>(rng.uniform_int(1, 6)));
    for (int& f : free) f = rng.coin(0.25) ? 0 : static_cast<int>(rng.uniform_int(1, 14));

    const PlacementChecker checker(dag);
    const auto plan = checker.place(dop, grouped, free);
    ASSERT_EQ(checker.fits(dop, grouped, free), plan.ok()) << "trial " << trial;
    const auto expected = reference_placement(dag, dop, grouped, free);
    ASSERT_EQ(plan.ok(), !expected.empty()) << "trial " << trial;
    if (!plan.ok()) continue;
    ++fitting;
    EXPECT_EQ(plan->task_server, expected) << "trial " << trial;
    std::vector<int> used(free.size(), 0);
    for (const auto& tasks : plan->task_server) {
      for (ServerId srv : tasks) ++used[srv];
    }
    for (std::size_t srv = 0; srv < free.size(); ++srv) EXPECT_LE(used[srv], free[srv]);
    for (const auto& [a, b] : grouped) {
      const std::set<ServerId> spread(plan->task_server[a].begin(), plan->task_server[a].end());
      if (spread.size() > 1) ++decomposed;  // a gather group split into task groups
    }
  }
  // The corpus exercises both outcomes and split gather groups.
  EXPECT_GT(fitting, 300);
  EXPECT_LT(fitting, 2700);
  EXPECT_GT(decomposed, 0);
}

}  // namespace
}  // namespace ditto::scheduler
