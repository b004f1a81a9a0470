#include "workload/pipelining.h"

#include <gtest/gtest.h>

#include "sim/job_simulator.h"
#include "storage/sim_store.h"
#include "timemodel/predictor.h"
#include "workload/queries.h"

namespace ditto::workload {
namespace {

PhysicsParams s3_physics() {
  PhysicsParams p;
  p.store = storage::s3_model();
  return p;
}

TEST(PipeliningTest, MarksDownstreamReadStep) {
  JobDag dag = build_query(QueryId::kQ95, 1000, s3_physics());
  ASSERT_TRUE(pipeline_edge(dag, 0, 1));  // map1 -> groupby
  bool found = false;
  for (const Step& s : dag.stage(1).steps()) {
    if (s.kind == StepKind::kRead && s.dep == 0) {
      EXPECT_TRUE(s.pipelined);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PipeliningTest, NonexistentEdgeReturnsFalse) {
  JobDag dag = build_query(QueryId::kQ95, 1000, s3_physics());
  EXPECT_FALSE(pipeline_edge(dag, 5, 0));
}

TEST(PipeliningTest, PipelineAllShufflesSkipsGatherAndBroadcast) {
  JobDag dag = build_query(QueryId::kQ95, 1000, s3_physics());
  std::size_t shuffles = 0;
  for (const Edge& e : dag.edges()) {
    if (e.exchange == ExchangeKind::kShuffle) ++shuffles;
  }
  EXPECT_EQ(pipeline_all_shuffles(dag), static_cast<int>(shuffles));
  EXPECT_EQ(pipelined_edges(dag).size(), shuffles);
}

TEST(PipeliningTest, ShortensPredictedStageTime) {
  // Paper §4.5: "the execution time of the downstream stage only
  // involves the non-overlapping steps".
  JobDag dag = build_query(QueryId::kQ95, 1000, s3_physics());
  const ExecTimePredictor before(dag);
  const double t_before = before.stage_time(1, 20, nothing_colocated());
  const double read_cost = before.edge_read_time(0, 1, 20);
  ASSERT_TRUE(pipeline_edge(dag, 0, 1));
  // A predictor reads the steps when it is built: price the pipelined DAG anew.
  const double t_after = ExecTimePredictor(dag).stage_time(1, 20, nothing_colocated());
  EXPECT_LT(t_after, t_before);
  // Exactly the read-from-map1 step vanished.
  EXPECT_NEAR(t_before - t_after, read_cost, 1e-9);
}

TEST(PipeliningTest, ShortensSimulatedJct) {
  JobDag plain = build_query(QueryId::kQ95, 1000, s3_physics());
  JobDag pipelined = plain;
  ASSERT_GT(pipeline_all_shuffles(pipelined), 0);

  sim::SimOptions opts;
  opts.skew_sigma = 0.0;
  opts.setup_time = 0.0;
  const sim::JobSimulator sim_plain(plain, storage::s3_model(), opts);
  const sim::JobSimulator sim_piped(pipelined, storage::s3_model(), opts);
  cluster::PlacementPlan plan;
  plan.dop.assign(plain.num_stages(), 16);
  plan.task_server.assign(plain.num_stages(), std::vector<ServerId>(16, 0));
  EXPECT_LT(sim_piped.run(plan).jct, sim_plain.run(plan).jct);
}

}  // namespace
}  // namespace ditto::workload
