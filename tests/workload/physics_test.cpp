#include "workload/physics.h"

#include <gtest/gtest.h>

#include "dag/dag_builder.h"
#include "storage/sim_store.h"
#include "timemodel/predictor.h"

namespace ditto::workload {
namespace {

JobDag small_dag() {
  auto r = DagBuilder("t")
               .stage("src", {.op = "map", .input = 9_GB, .output = 3_GB})
               .stage("mid", {.op = "join", .output = 1_GB})
               .stage("dim", {.op = "map", .input = 100_MB, .output = 50_MB})
               .stage("out", {.op = "reduce", .output = 10_MB})
               .edge("src", "mid", ExchangeKind::kShuffle)
               .edge("dim", "mid", ExchangeKind::kBroadcast)
               .edge("mid", "out", ExchangeKind::kShuffle)
               .build();
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

PhysicsParams s3_physics() {
  PhysicsParams p;
  p.store = storage::s3_model();
  return p;
}

TEST(PhysicsTest, SourceReadAlphaIsBytesOverBandwidth) {
  JobDag dag = small_dag();
  apply_physics(dag, s3_physics());
  const Step& read = dag.stage(0).steps().front();
  EXPECT_EQ(read.kind, StepKind::kRead);
  EXPECT_EQ(read.dep, kNoStage);
  EXPECT_NEAR(read.alpha, 9e9 / 90e6, 1e-6);
}

TEST(PhysicsTest, BroadcastReadIsInherentNotParallelized) {
  JobDag dag = small_dag();
  apply_physics(dag, s3_physics());
  // mid's read from dim is a broadcast: alpha 0, beta carries the
  // transfer (every task pulls the full payload).
  const Stage& mid = dag.stage(1);
  bool found = false;
  for (const Step& s : mid.steps()) {
    if (s.kind == StepKind::kRead && s.dep == 2) {
      found = true;
      EXPECT_DOUBLE_EQ(s.alpha, 0.0);
      EXPECT_GT(s.beta, 50e6 / 90e6 * 0.9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(PhysicsTest, ShuffleReadIsParallelized) {
  JobDag dag = small_dag();
  apply_physics(dag, s3_physics());
  const Stage& mid = dag.stage(1);
  for (const Step& s : mid.steps()) {
    if (s.kind == StepKind::kRead && s.dep == 0) {
      EXPECT_NEAR(s.alpha, 3e9 / 90e6, 1e-6);
    }
  }
}

TEST(PhysicsTest, FinalStageWritesExternally) {
  JobDag dag = small_dag();
  apply_physics(dag, s3_physics());
  const Stage& out = dag.stage(3);
  bool external_write = false;
  for (const Step& s : out.steps()) {
    if (s.kind == StepKind::kWrite && s.dep == kNoStage) external_write = true;
  }
  EXPECT_TRUE(external_write);
}

TEST(PhysicsTest, ComputeRatesVaryByOperator) {
  const ComputeRates rates;
  EXPECT_GT(rates.rate_for("map"), rates.rate_for("join"));
  EXPECT_EQ(rates.rate_for("join2"), rates.join_bps);
  EXPECT_EQ(rates.rate_for("groupby"), rates.groupby_bps);
  EXPECT_EQ(rates.rate_for("reduce1"), rates.reduce_bps);
  EXPECT_EQ(rates.rate_for("mystery"), rates.default_bps);
}

TEST(PhysicsTest, FasterStoreShrinksIoSteps) {
  JobDag s3_dag = small_dag();
  apply_physics(s3_dag, s3_physics());
  JobDag redis_dag = small_dag();
  PhysicsParams redis_params;
  redis_params.store = storage::redis_model();
  apply_physics(redis_dag, redis_params);
  const ExecTimePredictor ps3(s3_dag), predis(redis_dag);
  const auto none = nothing_colocated();
  EXPECT_LT(predis.read_time(0, 8, none), ps3.read_time(0, 8, none));
  // Compute is storage-independent.
  EXPECT_NEAR(predis.compute_time(0, 8), ps3.compute_time(0, 8), 1e-9);
}

TEST(PhysicsTest, RhoReflectsBytesProcessed) {
  JobDag dag = small_dag();
  apply_physics(dag, s3_physics());
  EXPECT_NEAR(dag.stage(0).rho(), 9.0, 0.1);          // 9 GB source
  EXPECT_NEAR(dag.stage(1).rho(), 3.0 + 0.05, 0.1);   // edge volumes
  EXPECT_GT(dag.stage(0).sigma(), 0.0);
}

TEST(PhysicsTest, InternalStagesGainInputBytesForNimble) {
  JobDag dag = small_dag();
  EXPECT_EQ(dag.stage(1).input_bytes(), 0u);
  apply_physics(dag, s3_physics());
  EXPECT_GT(dag.stage(1).input_bytes(), 0u);
}

TEST(PhysicsTest, ReapplyingIsIdempotentOnStepCount) {
  JobDag dag = small_dag();
  apply_physics(dag, s3_physics());
  const std::size_t count = dag.stage(1).steps().size();
  apply_physics(dag, s3_physics());
  EXPECT_EQ(dag.stage(1).steps().size(), count);
}

}  // namespace
}  // namespace ditto::workload
