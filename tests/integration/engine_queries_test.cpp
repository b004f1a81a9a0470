// Engine-executable Q1/Q16/Q94: distributed answers must match the
// single-node references under varied placements and DoPs, and Ditto
// must be able to plan them end to end.
#include <gtest/gtest.h>

#include "exec/engine.h"
#include "scheduler/ditto_scheduler.h"
#include "storage/sim_store.h"
#include "workload/engine_queries.h"
#include "workload/physics.h"

namespace ditto {
namespace {

using workload::build_q1_engine_job;
using workload::build_q16_engine_job;
using workload::build_q94_engine_job;
using workload::engine_answer_from_sink;
using workload::EngineAnswer;
using workload::EngineJob;
using workload::EngineQuerySpec;

EngineQuerySpec small_spec() {
  EngineQuerySpec spec;
  spec.fact_rows = 15000;
  spec.num_orders = 2500;
  return spec;
}

cluster::PlacementPlan round_robin_plan(const JobDag& dag, int dop, int servers) {
  cluster::PlacementPlan plan;
  plan.dop.assign(dag.num_stages(), dop);
  plan.task_server.resize(dag.num_stages());
  int next = 0;
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    plan.task_server[s].resize(dop);
    for (int t = 0; t < dop; ++t) {
      plan.task_server[s][t] = static_cast<ServerId>(next++ % servers);
    }
  }
  return plan;
}

EngineAnswer run_distributed(EngineJob& job, const cluster::PlacementPlan& plan) {
  auto store = storage::make_instant_store();
  exec::MiniEngine engine(job.dag, plan, *store);
  auto result = engine.run(job.bindings);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  if (!result.ok()) return {};
  auto answer = engine_answer_from_sink(result->sink_outputs.at(job.sink));
  EXPECT_TRUE(answer.ok());
  return answer.value_or(EngineAnswer{});
}

struct QueryCase {
  const char* name;
  EngineJob (*build)(const EngineQuerySpec&);
  EngineAnswer (*reference)(const EngineJob&, const EngineQuerySpec&);
};

// Without this gtest prints the case's raw bytes — pointers that ASLR
// moves on every run — into the test names it lists, so the names would
// change on each relink.
void PrintTo(const QueryCase& c, std::ostream* os) { *os << c.name; }

class EngineQueriesTest : public ::testing::TestWithParam<QueryCase> {};

INSTANTIATE_TEST_SUITE_P(
    Queries, EngineQueriesTest,
    ::testing::Values(
        QueryCase{"Q1", &build_q1_engine_job, &workload::q1_engine_reference},
        QueryCase{"Q16", &build_q16_engine_job, &workload::q16_engine_reference},
        QueryCase{"Q94", &build_q94_engine_job, &workload::q94_engine_reference}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(EngineQueriesTest, ReferenceIsNontrivial) {
  const EngineQuerySpec spec = small_spec();
  const EngineJob job = GetParam().build(spec);
  const EngineAnswer ref = GetParam().reference(job, spec);
  EXPECT_GT(ref.rows, 0);
  EXPECT_LT(ref.rows, static_cast<std::int64_t>(spec.num_orders));
  EXPECT_GT(ref.value, 0.0);
}

TEST_P(EngineQueriesTest, DistributedMatchesReference) {
  const EngineQuerySpec spec = small_spec();
  EngineJob job = GetParam().build(spec);
  const EngineAnswer ref = GetParam().reference(job, spec);
  for (const auto& [dop, servers] : std::vector<std::pair<int, int>>{{1, 1}, {3, 2}, {4, 5}}) {
    const EngineAnswer got = run_distributed(job, round_robin_plan(job.dag, dop, servers));
    EXPECT_EQ(got.rows, ref.rows) << GetParam().name << " dop=" << dop;
    EXPECT_NEAR(got.value, ref.value, 1e-6) << GetParam().name << " dop=" << dop;
  }
}

TEST_P(EngineQueriesTest, DittoPlansAndExecutesIt) {
  const EngineQuerySpec spec = small_spec();
  EngineJob job = GetParam().build(spec);
  const EngineAnswer ref = GetParam().reference(job, spec);

  workload::annotate_engine_volumes(job);
  JobDag model_dag = job.dag;
  workload::PhysicsParams physics;
  physics.store = storage::redis_model();
  workload::apply_physics(model_dag, physics);

  auto cl = cluster::Cluster::uniform(4, 8);
  scheduler::DittoScheduler sched;
  const auto plan = sched.schedule(model_dag, cl, Objective::kJct, storage::redis_model());
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  const EngineAnswer got = run_distributed(job, plan->placement);
  EXPECT_EQ(got.rows, ref.rows);
  EXPECT_NEAR(got.value, ref.value, 1e-6);
}

TEST(EngineQueriesVolumeTest, AnnotationPopulatesEveryStageAndEdge) {
  const EngineQuerySpec spec = small_spec();
  EngineJob job = build_q16_engine_job(spec);
  workload::annotate_engine_volumes(job);
  for (StageId s = 0; s < job.dag.num_stages(); ++s) {
    if (job.dag.parents(s).empty()) {
      EXPECT_GT(job.dag.stage(s).input_bytes(), 0u) << job.dag.stage(s).name();
    }
    EXPECT_GT(job.dag.stage(s).output_bytes(), 0u) << job.dag.stage(s).name();
  }
  for (const Edge& e : job.dag.edges()) EXPECT_GT(e.bytes, 0u);
}

TEST(EngineQueriesVolumeTest, Q1AndQ94DiffersOnlyInDimensionJoin) {
  // Q16 and Q94 share topology but filter on different key columns, so
  // their answers must differ on the same data shape.
  const EngineQuerySpec spec = small_spec();
  const EngineJob q16 = build_q16_engine_job(spec);
  const EngineJob q94 = build_q94_engine_job(spec);
  EXPECT_EQ(q16.dag.num_stages(), q94.dag.num_stages());
  const auto a16 = workload::q16_engine_reference(q16, spec);
  const auto a94 = workload::q94_engine_reference(q94, spec);
  EXPECT_NE(a16.rows, a94.rows);
}

}  // namespace
}  // namespace ditto
