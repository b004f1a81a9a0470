#include "timemodel/predictor.h"

#include <gtest/gtest.h>

namespace ditto {
namespace {

/// Two-stage chain with explicit read/compute/write steps.
JobDag make_chain() {
  JobDag dag("chain");
  const StageId a = dag.add_stage("a");
  const StageId b = dag.add_stage("b");
  EXPECT_TRUE(dag.add_edge(a, b, ExchangeKind::kShuffle, 1_GB).is_ok());

  Stage& sa = dag.stage(a);
  sa.add_step({StepKind::kRead, kNoStage, 10.0, 0.5, false});   // external read
  sa.add_step({StepKind::kCompute, kNoStage, 20.0, 1.0, false});
  sa.add_step({StepKind::kWrite, b, 6.0, 0.2, false});          // writes to b

  Stage& sb = dag.stage(b);
  sb.add_step({StepKind::kRead, a, 6.0, 0.2, false});           // reads from a
  sb.add_step({StepKind::kCompute, kNoStage, 8.0, 0.4, false});
  sb.add_step({StepKind::kWrite, kNoStage, 2.0, 0.1, false});   // final output
  return dag;
}

TEST(PredictorTest, StageTimeIsSumOfSteps) {
  const JobDag dag = make_chain();
  const ExecTimePredictor p(dag);
  // Stage a at d=2: (10+20+6)/2 + (0.5+1.0+0.2) = 18 + 1.7.
  EXPECT_NEAR(p.stage_time(0, 2, nothing_colocated()), 19.7, 1e-12);
}

TEST(PredictorTest, ColocationZeroesEdgeIoOnly) {
  const JobDag dag = make_chain();
  const ExecTimePredictor p(dag);
  const auto colocated = everything_colocated();
  // Stage a loses its write-to-b step but keeps the external read.
  EXPECT_NEAR(p.stage_time(0, 2, colocated), (10.0 + 20.0) / 2 + 1.5, 1e-12);
  // Stage b loses its read-from-a step but keeps the final write.
  EXPECT_NEAR(p.stage_time(1, 2, colocated), (8.0 + 2.0) / 2 + 0.5, 1e-12);
}

TEST(PredictorTest, ExternalIoNeverZeroCopied) {
  const JobDag dag = make_chain();
  const ExecTimePredictor p(dag);
  EXPECT_GT(p.read_time(0, 4, everything_colocated()), 0.0);
  EXPECT_GT(p.write_time(1, 4, everything_colocated()), 0.0);
}

TEST(PredictorTest, PipeliningAnnotationIsTheOverlapCredit) {
  // The model's annotation is the one pipelining switch (paper §4.5):
  // with b's read-from-a marked pipelined the step is skipped, the
  // overlap credit; the unannotated model charges the read in full,
  // which is what an engine that materializes the exchange runs.
  const JobDag plain = make_chain();
  JobDag annotated = plain;
  for (Step& step : annotated.stage(1).steps()) {
    if (step.kind == StepKind::kRead && step.dep == 0) step.pipelined = true;
  }
  const ExecTimePredictor overlap(annotated);
  const double overlapped = overlap.stage_time(1, 2, nothing_colocated());
  // b without its read step: (8+2)/2 + 0.5.
  EXPECT_NEAR(overlapped, 5.5, 1e-12);
  EXPECT_NEAR(overlap.read_time(1, 2, nothing_colocated()), 0.0, 1e-12);

  const ExecTimePredictor waves(plain);
  const double materialized = waves.stage_time(1, 2, nothing_colocated());
  // Full b: (6+8+2)/2 + (0.2+0.4+0.1).
  EXPECT_NEAR(materialized, 8.7, 1e-12);
  EXPECT_GT(materialized, overlapped);
  EXPECT_GT(waves.read_time(1, 2, nothing_colocated()), 0.0);
}

TEST(PredictorTest, KindBreakdownSumsToTotal) {
  const JobDag dag = make_chain();
  const ExecTimePredictor p(dag);
  const auto none = nothing_colocated();
  const double total = p.stage_time(1, 3, none);
  const double parts =
      p.read_time(1, 3, none) + p.compute_time(1, 3) + p.write_time(1, 3, none);
  EXPECT_NEAR(total, parts, 1e-12);
}

TEST(PredictorTest, StragglerFactorInflatesAlphaOnly) {
  const JobDag dag = make_chain();
  ExecTimePredictor p(dag);
  const double base = p.stage_time(0, 4, nothing_colocated());
  p.set_straggler_factor(0, 1.5);
  const double inflated = p.stage_time(0, 4, nothing_colocated());
  // alpha part was 36/4 = 9 -> 13.5; beta (1.7) unchanged.
  EXPECT_NEAR(inflated - base, 9.0 * 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(p.straggler_factor(0), 1.5);
  EXPECT_DOUBLE_EQ(p.straggler_factor(1), 1.0);
}

TEST(PredictorTest, PipelinedStepsAreSkipped) {
  JobDag dag("p");
  const StageId a = dag.add_stage("a");
  Stage& sa = dag.stage(a);
  sa.add_step({StepKind::kRead, kNoStage, 10.0, 1.0, true});  // pipelined
  sa.add_step({StepKind::kCompute, kNoStage, 4.0, 0.5, false});
  const ExecTimePredictor p(dag);
  EXPECT_NEAR(p.stage_time(a, 2, nothing_colocated()), 2.5, 1e-12);
}

TEST(PredictorTest, EdgeIoTimeIsolatesOneDependency) {
  const JobDag dag = make_chain();
  const ExecTimePredictor p(dag);
  // write(a->b) at d=3: 6/3 + 0.2 = 2.2; read at d=6: 6/6 + 0.2 = 1.2.
  EXPECT_NEAR(p.edge_write_time(0, 1, 3), 2.2, 1e-12);
  EXPECT_NEAR(p.edge_read_time(0, 1, 6), 1.2, 1e-12);
  EXPECT_NEAR(p.edge_io_time(0, 1, 3, 6), 3.4, 1e-12);
}

TEST(PredictorTest, ResourceUsageIsLinearInD) {
  JobDag dag("r");
  const StageId a = dag.add_stage("a");
  dag.stage(a).set_rho(3.0);
  dag.stage(a).set_sigma(0.5);
  const ExecTimePredictor p(dag);
  EXPECT_DOUBLE_EQ(p.resource_usage(a, 4), 5.0);
  EXPECT_DOUBLE_EQ(p.resource_usage(a, 10), 8.0);
}

TEST(PredictorTest, StageCostIsUsageTimesTime) {
  const JobDag dag = make_chain();
  const ExecTimePredictor p(dag);
  const auto none = nothing_colocated();
  EXPECT_NEAR(p.stage_cost(0, 2, none),
              p.resource_usage(0, 2) * p.stage_time(0, 2, none), 1e-12);
}

}  // namespace
}  // namespace ditto
