#include "workload/micro.h"

#include <gtest/gtest.h>

#include "dag/dag_algorithms.h"
#include "storage/sim_store.h"
#include "support/dag_paths.h"

namespace ditto::workload {
namespace {

PhysicsParams s3_physics() {
  PhysicsParams p;
  p.store = storage::s3_model();
  return p;
}

TEST(MicroTest, Fig1JoinShape) {
  const JobDag dag = fig1_join_dag(s3_physics());
  EXPECT_EQ(dag.num_stages(), 3u);
  EXPECT_EQ(dag.sources().size(), 2u);
  EXPECT_EQ(dag.sinks().size(), 1u);
  // Table A's map dwarfs Table B's.
  EXPECT_GT(dag.stage(0).input_bytes(), 2 * dag.stage(1).input_bytes());
}

TEST(MicroTest, Fig4PinsAlphaRatioFour) {
  const JobDag dag = fig4_intra_path_dag(s3_physics());
  EXPECT_EQ(dag.num_stages(), 2u);
  EXPECT_NEAR(dag.stage(0).alpha_total() / dag.stage(1).alpha_total(), 4.0, 1e-9);
}

TEST(MicroTest, Fig5PinsAlphaRatioTwo) {
  const JobDag dag = fig5_inter_path_dag(s3_physics());
  EXPECT_EQ(dag.num_stages(), 3u);
  EXPECT_NEAR(dag.stage(0).alpha_total() / dag.stage(1).alpha_total(), 2.0, 1e-9);
}

TEST(MicroTest, Fig6TwoPathsIntoSink) {
  const JobDag dag = fig6_grouping_dag(s3_physics());
  EXPECT_EQ(dag.num_stages(), 5u);
  EXPECT_EQ(dag.sources().size(), 2u);
  EXPECT_EQ(enumerate_paths(dag).size(), 2u);
}

TEST(MicroTest, ChainHasRequestedLengthAndDecay) {
  const JobDag dag = chain_dag(5, 10_GB, 0.5, s3_physics());
  EXPECT_EQ(dag.num_stages(), 5u);
  EXPECT_EQ(dag.num_edges(), 4u);
  EXPECT_EQ(max_depth(dag), 4);
  // Edge volumes halve along the chain.
  const Bytes first = dag.find_edge(0, 1)->bytes;
  const Bytes last = dag.find_edge(3, 4)->bytes;
  EXPECT_GT(first, 4 * last);
}

TEST(MicroTest, SingleStageChain) {
  const JobDag dag = chain_dag(1, 1_GB, 0.5, s3_physics());
  EXPECT_EQ(dag.num_stages(), 1u);
  EXPECT_TRUE(dag.validate().is_ok());
  EXPECT_FALSE(dag.stage(0).steps().empty());
}

TEST(MicroTest, FanInHasHeterogeneousLeaves) {
  const JobDag dag = fan_in_dag(4, 1_GB, s3_physics());
  EXPECT_EQ(dag.num_stages(), 5u);
  EXPECT_EQ(dag.sources().size(), 4u);
  EXPECT_GT(dag.stage(3).input_bytes(), dag.stage(0).input_bytes());
}

}  // namespace
}  // namespace ditto::workload
