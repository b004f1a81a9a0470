#include "support/oracle.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "scheduler/ditto_scheduler.h"
#include "storage/sim_store.h"
#include "workload/micro.h"
#include "workload/physics.h"

namespace ditto::scheduler {
namespace {

workload::PhysicsParams s3_physics() {
  workload::PhysicsParams p;
  p.store = storage::s3_model();
  return p;
}

TEST(OracleTest, RefusesLargeInstances) {
  const JobDag dag = workload::chain_dag(8, 10_GB, 0.5, s3_physics());
  auto cl = cluster::Cluster::uniform(8, 32);
  OracleScheduler oracle;
  EXPECT_EQ(oracle.schedule(dag, cl, Objective::kJct, storage::s3_model()).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(OracleTest, FindsTheClosedFormOptimumOnAChain) {
  // Two-stage chain with compute alphas 60 and 15 and no IO: the true
  // optimum is the sqrt ratio 2:1 (Fig. 4's example).
  JobDag dag("fig4");
  const StageId a = dag.add_stage("a");
  const StageId b = dag.add_stage("b");
  ASSERT_TRUE(dag.add_edge(a, b).is_ok());
  dag.stage(a).add_step({StepKind::kCompute, kNoStage, 60.0, 0.0, false});
  dag.stage(b).add_step({StepKind::kCompute, kNoStage, 15.0, 0.0, false});
  auto cl = cluster::Cluster::uniform(1, 15);
  OracleScheduler oracle;
  const auto plan = oracle.schedule(dag, cl, Objective::kJct, storage::s3_model());
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->placement.dop[a], 10);
  EXPECT_EQ(plan->placement.dop[b], 5);
}

TEST(OracleTest, GroupsWhenZeroCopyPays) {
  // Heavy shuffle between two small-compute stages that fit one server:
  // the optimum must group them.
  JobDag dag("grp");
  const StageId a = dag.add_stage("a");
  const StageId b = dag.add_stage("b");
  ASSERT_TRUE(dag.add_edge(a, b, ExchangeKind::kShuffle, 1_GB).is_ok());
  dag.stage(a).add_step({StepKind::kCompute, kNoStage, 5.0, 0.0, false});
  dag.stage(a).add_step({StepKind::kWrite, b, 50.0, 1.0, false});
  dag.stage(b).add_step({StepKind::kRead, a, 50.0, 1.0, false});
  dag.stage(b).add_step({StepKind::kCompute, kNoStage, 5.0, 0.0, false});
  auto cl = cluster::Cluster::uniform(2, 8);
  OracleScheduler oracle;
  const auto plan = oracle.schedule(dag, cl, Objective::kJct, storage::s3_model());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->placement.zero_copy_edges.size(), 1u);
}

class DittoVsOracle : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, DittoVsOracle, ::testing::Range(0, 12));

TEST_P(DittoVsOracle, HeuristicWithinFactorOfOptimum) {
  // Random small DAGs where the exhaustive optimum is computable: the
  // Ditto heuristic must stay within 35% of the oracle on its own
  // predicted objective (greedy grouping has no optimality guarantee;
  // observed worst case across seeds is ~26%), and the oracle, being
  // exhaustive, must never lose to Ditto.
  Rng rng(GetParam() * 41 + 13);
  JobDag dag("rand");
  const int n = 3 + GetParam() % 2;  // 3-4 stages
  for (int i = 0; i < n; ++i) {
    const StageId s = dag.add_stage("s" + std::to_string(i));
    Stage& st = dag.stage(s);
    st.set_op(i == 0 ? "map" : "join");
    st.set_input_bytes(static_cast<Bytes>(rng.uniform(0.5, 8.0) * 1e9));
    st.set_output_bytes(st.input_bytes() / 3);
  }
  // Random tree edges toward the last stage.
  for (int i = 0; i + 1 < n; ++i) {
    const StageId dst =
        static_cast<StageId>(rng.uniform_int(i + 1, n - 1));
    (void)dag.add_edge(i, dst, ExchangeKind::kShuffle, dag.stage(i).output_bytes());
  }
  workload::apply_physics(dag, s3_physics());

  auto cl = cluster::Cluster::uniform(3, 8);  // 24 slots
  OracleScheduler oracle;
  DittoScheduler ditto;
  const auto po = oracle.schedule(dag, cl, Objective::kJct, storage::s3_model());
  const auto pd = ditto.schedule(dag, cl, Objective::kJct, storage::s3_model());
  ASSERT_TRUE(po.ok()) << po.status().to_string();
  ASSERT_TRUE(pd.ok()) << pd.status().to_string();
  EXPECT_LE(po->predicted.jct, pd->predicted.jct + 1e-9);  // oracle is optimal
  EXPECT_LE(pd->predicted.jct, po->predicted.jct * 1.35)
      << "heuristic strayed too far from the optimum";
}

TEST_P(DittoVsOracle, CostObjectiveAlsoNearOptimal) {
  Rng rng(GetParam() * 43 + 17);
  const JobDag dag = workload::fan_in_dag(2, static_cast<Bytes>(rng.uniform(1.0, 4.0) * 1e9),
                                          s3_physics());
  auto cl = cluster::Cluster::uniform(3, 8);
  OracleScheduler oracle;
  DittoScheduler ditto;
  const auto po = oracle.schedule(dag, cl, Objective::kCost, storage::s3_model());
  const auto pd = ditto.schedule(dag, cl, Objective::kCost, storage::s3_model());
  ASSERT_TRUE(po.ok() && pd.ok());
  EXPECT_LE(po->predicted.cost.total(), pd->predicted.cost.total() + 1e-9);
  EXPECT_LE(pd->predicted.cost.total(), po->predicted.cost.total() * 1.3);
}

}  // namespace
}  // namespace ditto::scheduler
