#include "scheduler/evaluation.h"

#include <gtest/gtest.h>

#include "storage/sim_store.h"

namespace ditto::scheduler {
namespace {

/// a -> b chain with explicit IO/compute steps and edge bytes.
JobDag chain() {
  JobDag dag("chain");
  const StageId a = dag.add_stage("a");
  const StageId b = dag.add_stage("b");
  EXPECT_TRUE(dag.add_edge(a, b, ExchangeKind::kShuffle, 2_GB).is_ok());
  dag.stage(a).add_step({StepKind::kCompute, kNoStage, 12.0, 1.0, false});
  dag.stage(a).add_step({StepKind::kWrite, b, 6.0, 0.5, false});
  dag.stage(b).add_step({StepKind::kRead, a, 6.0, 0.5, false});
  dag.stage(b).add_step({StepKind::kCompute, kNoStage, 4.0, 1.0, false});
  dag.stage(a).set_rho(2.0);
  dag.stage(b).set_rho(1.0);
  return dag;
}

cluster::PlacementPlan make_plan(const JobDag& dag, std::vector<int> dop,
                                 std::vector<std::pair<StageId, StageId>> zero_copy = {}) {
  cluster::PlacementPlan plan;
  plan.dop = std::move(dop);
  plan.task_server.resize(dag.num_stages());
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    plan.task_server[s].assign(plan.dop[s], 0);
  }
  plan.zero_copy_edges = std::move(zero_copy);
  return plan;
}

TEST(EvaluationTest, JctIsChainOfStageTimes) {
  const JobDag dag = chain();
  const ExecTimePredictor pred(dag);
  const auto plan = make_plan(dag, {2, 2});
  // a: (12+6)/2 + 1.5 = 10.5;  b: (6+4)/2 + 1.5 = 6.5; JCT = 17.
  EXPECT_NEAR(evaluate_plan(pred, plan, storage::s3_model()).jct, 17.0, 1e-9);
}

TEST(EvaluationTest, ZeroCopyEdgeShortensJct) {
  const JobDag dag = chain();
  const ExecTimePredictor pred(dag);
  const auto apart = make_plan(dag, {2, 2});
  const auto together = make_plan(dag, {2, 2}, {{0, 1}});
  // Grouping removes both the write (6/2+0.5) and read (6/2+0.5): -7.
  EXPECT_NEAR(evaluate_plan(pred, apart, storage::s3_model()).jct -
                  evaluate_plan(pred, together, storage::s3_model()).jct, 7.0, 1e-9);
}

TEST(EvaluationTest, ParallelSiblingsOverlap) {
  JobDag dag("sib");
  const StageId a = dag.add_stage("a");
  const StageId b = dag.add_stage("b");
  const StageId c = dag.add_stage("c");
  EXPECT_TRUE(dag.add_edge(a, c).is_ok());
  EXPECT_TRUE(dag.add_edge(b, c).is_ok());
  dag.stage(a).add_step({StepKind::kCompute, kNoStage, 10.0, 0, false});
  dag.stage(b).add_step({StepKind::kCompute, kNoStage, 30.0, 0, false});
  dag.stage(c).add_step({StepKind::kCompute, kNoStage, 5.0, 0, false});
  const ExecTimePredictor pred(dag);
  const auto plan = make_plan(dag, {1, 1, 1});
  // c starts at max(10, 30) = 30; JCT = 35.
  EXPECT_NEAR(evaluate_plan(pred, plan, storage::s3_model()).jct, 35.0, 1e-9);
}

TEST(EvaluationTest, FunctionCostSumsStages) {
  const JobDag dag = chain();
  const ExecTimePredictor pred(dag);
  const auto plan = make_plan(dag, {2, 2});
  const auto ev = evaluate_plan(pred, plan, storage::s3_model());
  EXPECT_NEAR(ev.cost.function_gbs, 2.0 * 10.5 + 1.0 * 6.5, 1e-9);
}

TEST(EvaluationTest, S3PersistenceIsNearFree) {
  const JobDag dag = chain();
  const ExecTimePredictor pred(dag);
  const auto plan = make_plan(dag, {2, 2});
  const auto ev = evaluate_plan(pred, plan, storage::s3_model());
  EXPECT_LT(ev.cost.storage_gbs, 1e-2);
  EXPECT_DOUBLE_EQ(ev.cost.shm_gbs, 0.0);
}

TEST(EvaluationTest, RedisPersistenceCostsLikeMemory) {
  const JobDag dag = chain();
  const ExecTimePredictor pred(dag);
  const auto plan = make_plan(dag, {2, 2});
  const auto ev = evaluate_plan(pred, plan, storage::redis_model());
  EXPECT_GT(ev.cost.storage_gbs, 0.1);
}

TEST(EvaluationTest, ZeroCopyMovesCostToShm) {
  const JobDag dag = chain();
  const ExecTimePredictor pred(dag);
  const auto plan = make_plan(dag, {2, 2}, {{0, 1}});
  const auto ev = evaluate_plan(pred, plan, storage::redis_model());
  EXPECT_GT(ev.cost.shm_gbs, 0.0);
  EXPECT_DOUBLE_EQ(ev.cost.storage_gbs, 0.0);
}

TEST(EvaluationTest, LaunchTimesEqualReadyTimes) {
  const JobDag dag = chain();
  const ExecTimePredictor pred(dag);
  const auto plan = make_plan(dag, {2, 2});
  const auto launch = evaluate_plan(pred, plan, storage::s3_model()).stage_start;
  ASSERT_EQ(launch.size(), 2u);
  EXPECT_DOUBLE_EQ(launch[0], 0.0);
  EXPECT_NEAR(launch[1], 10.5, 1e-9);  // b launches when a finishes
}

TEST(EvaluationTest, EvaluationExposesPerStageTimeline) {
  const JobDag dag = chain();
  const ExecTimePredictor pred(dag);
  const auto plan = make_plan(dag, {1, 1});
  const auto ev = evaluate_plan(pred, plan, storage::s3_model());
  EXPECT_DOUBLE_EQ(ev.stage_start[0], 0.0);
  EXPECT_NEAR(ev.stage_finish[0], 19.5, 1e-9);
  EXPECT_NEAR(ev.stage_start[1], 19.5, 1e-9);
  EXPECT_NEAR(ev.jct, ev.stage_finish[1], 1e-12);
}

}  // namespace
}  // namespace ditto::scheduler
