#include "scheduler/dop_ratio.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "timemodel/predictor.h"

namespace ditto::scheduler {
namespace {

/// Optimal DoPs of `dag` with the `grouped` edges zero-copy (default:
/// none), from the stage models the scheduler's search uses.
Result<DopResult> dops_of(const JobDag& dag, Objective objective, int total_slots,
                          EdgeFlags grouped = {}) {
  if (grouped.empty()) grouped.assign(dag.num_edges(), 0);
  const ExecTimePredictor pred(dag);
  return optimal_dops(dag, merge_order(dag), pred.stage_models(grouped), objective,
                      total_slots);
}

/// Stage with a single compute step of the given alpha/beta.
void set_alpha(JobDag& dag, StageId s, double alpha, double beta = 0.0) {
  dag.stage(s).steps().clear();
  dag.stage(s).add_step({StepKind::kCompute, kNoStage, alpha, beta, false});
}

TEST(RoundDopsTest, FloorsAndClampsToOne) {
  const auto dop = round_dops({3.7, 0.4, 2.1}, 10);
  EXPECT_EQ(dop, (std::vector<int>{3, 1, 2}));
}

TEST(RoundDopsTest, RepairsOvershootFromMinOne) {
  // Three tiny stages forced to 1 each with C = 3 leaves no overshoot;
  // with C = 3 and a large 4th the repair shaves the largest.
  const auto dop = round_dops({0.1, 0.2, 0.3, 5.9}, 6);
  EXPECT_EQ(std::accumulate(dop.begin(), dop.end(), 0), 6);
  EXPECT_EQ(dop[3], 3);
}

TEST(RoundDopsTest, SumNeverExceedsSlotsWhenRepairable) {
  const auto dop = round_dops({0.2, 0.2, 0.2, 0.2, 10.0}, 8);
  EXPECT_LE(std::accumulate(dop.begin(), dop.end(), 0), 8);
}

TEST(DopRatioTest, IntraPathRatioIsSqrtAlpha) {
  // Fig. 4: alpha1 = 60, alpha2 = 15, 15 slots -> 10 and 5.
  JobDag dag("fig4");
  const StageId s1 = dag.add_stage("s1");
  const StageId s2 = dag.add_stage("s2");
  ASSERT_TRUE(dag.add_edge(s1, s2).is_ok());
  set_alpha(dag, s1, 60.0);
  set_alpha(dag, s2, 15.0);
  const auto result = dops_of(dag, Objective::kJct, 15);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->continuous[s1], 10.0, 1e-9);
  EXPECT_NEAR(result->continuous[s2], 5.0, 1e-9);
  EXPECT_EQ(result->dop[s1], 10);
  EXPECT_EQ(result->dop[s2], 5);
}

TEST(DopRatioTest, InterPathRatioIsLinearAlpha) {
  // Fig. 5: siblings alpha 24 and 12 into a tiny sink, 6 + sink slots.
  JobDag dag("fig5");
  const StageId s1 = dag.add_stage("s1");
  const StageId s2 = dag.add_stage("s2");
  const StageId sink = dag.add_stage("sink");
  ASSERT_TRUE(dag.add_edge(s1, sink).is_ok());
  ASSERT_TRUE(dag.add_edge(s2, sink).is_ok());
  set_alpha(dag, s1, 24.0);
  set_alpha(dag, s2, 12.0);
  set_alpha(dag, sink, 1e-6);  // negligible sink work
  const auto result = dops_of(dag, Objective::kJct, 6);
  ASSERT_TRUE(result.ok());
  // Siblings split their share 2:1.
  EXPECT_NEAR(result->continuous[s1] / result->continuous[s2], 2.0, 1e-6);
}

TEST(DopRatioTest, ChainRatiosFollowSqrtPairwise) {
  // Chain of three: d_i/d_j = sqrt(a_i/a_j) for ALL pairs (Appendix A.1).
  JobDag dag("chain3");
  const StageId a = dag.add_stage("a");
  const StageId b = dag.add_stage("b");
  const StageId c = dag.add_stage("c");
  ASSERT_TRUE(dag.add_edge(a, b).is_ok());
  ASSERT_TRUE(dag.add_edge(b, c).is_ok());
  set_alpha(dag, a, 100.0);
  set_alpha(dag, b, 25.0);
  set_alpha(dag, c, 4.0);
  const auto result = dops_of(dag, Objective::kJct, 100);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->continuous[a] / result->continuous[b], std::sqrt(100.0 / 25.0), 1e-6);
  EXPECT_NEAR(result->continuous[b] / result->continuous[c], std::sqrt(25.0 / 4.0), 1e-6);
}

TEST(DopRatioTest, ContinuousSumEqualsSlots) {
  JobDag dag("sum");
  const StageId a = dag.add_stage("a");
  const StageId b = dag.add_stage("b");
  const StageId c = dag.add_stage("c");
  ASSERT_TRUE(dag.add_edge(a, c).is_ok());
  ASSERT_TRUE(dag.add_edge(b, c).is_ok());
  set_alpha(dag, a, 7.0);
  set_alpha(dag, b, 13.0);
  set_alpha(dag, c, 29.0);
  const auto result = dops_of(dag, Objective::kJct, 42);
  ASSERT_TRUE(result.ok());
  const double sum =
      std::accumulate(result->continuous.begin(), result->continuous.end(), 0.0);
  EXPECT_NEAR(sum, 42.0, 1e-6);
}

TEST(DopRatioTest, FailsWithFewerSlotsThanStages) {
  JobDag dag("tiny");
  dag.add_stage("a");
  dag.add_stage("b");
  set_alpha(dag, 0, 1.0);
  set_alpha(dag, 1, 1.0);
  EXPECT_FALSE(dops_of(dag, Objective::kJct, 1).ok());
}

TEST(DopRatioTest, ColocationShiftsSlotsTowardRemainingWork) {
  // Two-stage chain where the IO steps dominate stage b. Grouping the
  // edge removes b's read cost, so b should receive FEWER slots.
  JobDag dag("grp");
  const StageId a = dag.add_stage("a");
  const StageId b = dag.add_stage("b");
  ASSERT_TRUE(dag.add_edge(a, b).is_ok());
  dag.stage(a).add_step({StepKind::kCompute, kNoStage, 10.0, 0.0, false});
  dag.stage(a).add_step({StepKind::kWrite, b, 5.0, 0.0, false});
  dag.stage(b).add_step({StepKind::kRead, a, 40.0, 0.0, false});
  dag.stage(b).add_step({StepKind::kCompute, kNoStage, 10.0, 0.0, false});
  const auto d_apart = dops_of(dag, Objective::kJct, 60);
  const auto d_together = dops_of(dag, Objective::kJct, 60, /*grouped=*/{1});
  ASSERT_TRUE(d_apart.ok());
  ASSERT_TRUE(d_together.ok());
  EXPECT_LT(d_together->continuous[b], d_apart->continuous[b]);
  EXPECT_GT(d_together->continuous[a], d_apart->continuous[a]);
}

TEST(DopRatioCostTest, RatioIsSqrtRhoAlpha) {
  JobDag dag("cost");
  const StageId a = dag.add_stage("a");
  const StageId b = dag.add_stage("b");
  ASSERT_TRUE(dag.add_edge(a, b).is_ok());
  set_alpha(dag, a, 16.0);
  set_alpha(dag, b, 4.0);
  dag.stage(a).set_rho(1.0);
  dag.stage(b).set_rho(4.0);
  const auto result = dops_of(dag, Objective::kCost, 30);
  ASSERT_TRUE(result.ok());
  // d_a/d_b = sqrt(1*16)/sqrt(4*4) = 1.
  EXPECT_NEAR(result->continuous[a], result->continuous[b], 1e-9);
}

TEST(DopRatioCostTest, HigherRhoDrawsMoreSlots) {
  JobDag dag("cost2");
  const StageId a = dag.add_stage("a");
  const StageId b = dag.add_stage("b");
  ASSERT_TRUE(dag.add_edge(a, b).is_ok());
  set_alpha(dag, a, 10.0);
  set_alpha(dag, b, 10.0);
  dag.stage(a).set_rho(9.0);
  dag.stage(b).set_rho(1.0);
  const auto result = dops_of(dag, Objective::kCost, 40);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->continuous[a] / result->continuous[b], 3.0, 1e-9);
}

TEST(DopRatioTest, GeneralDagMultiParentDoesNotCrash) {
  // Stage 0 feeds both 1 and 2; both feed 3 — general DAG, not a tree.
  JobDag dag("general");
  for (int i = 0; i < 4; ++i) dag.add_stage("s");
  ASSERT_TRUE(dag.add_edge(0, 1).is_ok());
  ASSERT_TRUE(dag.add_edge(0, 2).is_ok());
  ASSERT_TRUE(dag.add_edge(1, 3).is_ok());
  ASSERT_TRUE(dag.add_edge(2, 3).is_ok());
  for (StageId s = 0; s < 4; ++s) set_alpha(dag, s, 10.0 + s);
  const auto result = dops_of(dag, Objective::kJct, 64);
  ASSERT_TRUE(result.ok());
  int sum = 0;
  for (int d : result->dop) {
    EXPECT_GE(d, 1);
    sum += d;
  }
  EXPECT_LE(sum, 64);
}

TEST(DopRatioTest, DisconnectedComponentsShareSlots) {
  // Two independent chains (multi-sink DAG).
  JobDag dag("forest");
  for (int i = 0; i < 4; ++i) dag.add_stage("s");
  ASSERT_TRUE(dag.add_edge(0, 1).is_ok());
  ASSERT_TRUE(dag.add_edge(2, 3).is_ok());
  for (StageId s = 0; s < 4; ++s) set_alpha(dag, s, 10.0);
  const auto result = dops_of(dag, Objective::kJct, 40);
  ASSERT_TRUE(result.ok());
  const double sum =
      std::accumulate(result->continuous.begin(), result->continuous.end(), 0.0);
  EXPECT_NEAR(sum, 40.0, 1e-6);
  // Symmetric chains should split symmetrically.
  EXPECT_NEAR(result->continuous[0], result->continuous[2], 1e-6);
}

}  // namespace
}  // namespace ditto::scheduler
