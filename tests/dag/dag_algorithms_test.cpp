#include "dag/dag_algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/dag_paths.h"

namespace ditto {
namespace {

JobDag diamond() {
  JobDag dag("diamond");
  for (const char* n : {"a", "b", "c", "d"}) dag.add_stage(n);
  EXPECT_TRUE(dag.add_edge(0, 1).is_ok());
  EXPECT_TRUE(dag.add_edge(0, 2).is_ok());
  EXPECT_TRUE(dag.add_edge(1, 3).is_ok());
  EXPECT_TRUE(dag.add_edge(2, 3).is_ok());
  return dag;
}

TEST(TopoOrderTest, RespectsAllEdges) {
  const JobDag dag = diamond();
  const auto order = topological_order(dag);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const Edge& e : dag.edges()) EXPECT_LT(pos[e.src], pos[e.dst]);
}

TEST(DepthTest, SinksHaveDepthZero) {
  const auto depths = stage_depths(diamond());
  EXPECT_EQ(depths[3], 0);
  EXPECT_EQ(depths[1], 1);
  EXPECT_EQ(depths[2], 1);
  EXPECT_EQ(depths[0], 2);
}

TEST(DepthTest, UnevenBranches) {
  // 0 -> 1 -> 2 -> 4;  3 -> 4.  Depth of 3 is 1, of 0 is 3.
  JobDag dag;
  for (int i = 0; i < 5; ++i) dag.add_stage("s");
  EXPECT_TRUE(dag.add_edge(0, 1).is_ok());
  EXPECT_TRUE(dag.add_edge(1, 2).is_ok());
  EXPECT_TRUE(dag.add_edge(2, 4).is_ok());
  EXPECT_TRUE(dag.add_edge(3, 4).is_ok());
  const auto depths = stage_depths(dag);
  EXPECT_EQ(depths[0], 3);
  EXPECT_EQ(depths[3], 1);
  EXPECT_EQ(max_depth(dag), 3);
}

TEST(CriticalPathTest, PicksHeavierBranch) {
  JobDag dag = diamond();
  const DagTopology topology(dag);
  const std::vector<double> node_w = {1.0, 1.0, 10.0, 1.0};
  const std::vector<double> edge_w(dag.num_edges(), 0.5);
  CriticalPath cp;
  topology.critical_path(node_w, edge_w, cp);
  // Path a -> c -> d: 1 + 0.5 + 10 + 0.5 + 1 = 13.
  EXPECT_DOUBLE_EQ(cp.length, 13.0);
  EXPECT_EQ(cp.edges, (std::vector<int>{topology.edge_index(0, 2), topology.edge_index(2, 3)}));
  EXPECT_EQ(cp.tail, 3u);
}

TEST(CriticalPathTest, EdgeWeightsCanDecide) {
  JobDag dag = diamond();
  const DagTopology topology(dag);
  const std::vector<double> node_w(dag.num_stages(), 1.0);
  std::vector<double> edge_w(dag.num_edges(), 1.0);
  edge_w[topology.edge_index(0, 1)] = 100.0;
  CriticalPath cp;
  topology.critical_path(node_w, edge_w, cp);
  EXPECT_EQ(cp.edges, (std::vector<int>{topology.edge_index(0, 1), topology.edge_index(1, 3)}));
  EXPECT_DOUBLE_EQ(cp.length, 1 + 100 + 1 + 1 + 1);
  // Reusing the result recomputes the path from scratch.
  edge_w[topology.edge_index(0, 1)] = 1.0;
  edge_w[topology.edge_index(2, 3)] = 50.0;
  topology.critical_path(node_w, edge_w, cp);
  EXPECT_EQ(cp.edges, (std::vector<int>{topology.edge_index(0, 2), topology.edge_index(2, 3)}));
  EXPECT_DOUBLE_EQ(cp.length, 1 + 1 + 1 + 50 + 1);
}

TEST(CriticalPathTest, MultipleSinksPicksHeaviest) {
  JobDag dag;
  for (int i = 0; i < 3; ++i) dag.add_stage("s");
  EXPECT_TRUE(dag.add_edge(0, 1).is_ok());
  EXPECT_TRUE(dag.add_edge(0, 2).is_ok());
  const DagTopology topology(dag);
  const std::vector<double> node_w = {1.0, 1.0, 5.0};
  const std::vector<double> edge_w(dag.num_edges(), 0.0);
  CriticalPath cp;
  topology.critical_path(node_w, edge_w, cp);
  EXPECT_EQ(cp.tail, 2u);
  EXPECT_DOUBLE_EQ(cp.length, 6.0);
}

TEST(EnumeratePathsTest, DiamondHasTwoPaths) {
  const auto paths = enumerate_paths(diamond());
  ASSERT_EQ(paths.size(), 2u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.front(), 0u);
    EXPECT_EQ(p.back(), 3u);
    EXPECT_EQ(p.size(), 3u);
  }
}

TEST(EnumeratePathsTest, RespectsCap) {
  // Ladder of diamonds: path count grows exponentially; the cap holds.
  JobDag dag;
  StageId prev = dag.add_stage("s0");
  for (int i = 0; i < 12; ++i) {
    const StageId l = dag.add_stage("l");
    const StageId r = dag.add_stage("r");
    const StageId join = dag.add_stage("j");
    EXPECT_TRUE(dag.add_edge(prev, l).is_ok());
    EXPECT_TRUE(dag.add_edge(prev, r).is_ok());
    EXPECT_TRUE(dag.add_edge(l, join).is_ok());
    EXPECT_TRUE(dag.add_edge(r, join).is_ok());
    prev = join;
  }
  const auto paths = enumerate_paths(dag, 100);
  EXPECT_LE(paths.size(), 100u);
  EXPECT_GE(paths.size(), 1u);
}

}  // namespace
}  // namespace ditto
