// Engine-executable Q1/Q16/Q94/Q95: distributed answers must match the
// single-node references under varied placements and DoPs, Ditto must
// plan them end to end, and the catalogue's data and answers are
// pinned. Q95 also runs pipelined, across DoPs and through the
// monitor-feedback loop.
#include <gtest/gtest.h>

#include <map>

#include "cluster/feedback.h"
#include "exec/engine.h"
#include "scheduler/ditto_scheduler.h"
#include "storage/sim_store.h"
#include "workload/engine_queries.h"
#include "workload/physics.h"
#include "workload/pipelining.h"

namespace ditto {

namespace workload {
// Without this gtest prints the entry's raw bytes — pointers that ASLR
// moves on every run — into the test names it lists, so the names would
// change on each relink.
void PrintTo(const EngineQuery& q, std::ostream* os) { *os << 'Q' << (q.name + 1); }
}  // namespace workload

namespace {

using workload::build_q16_engine_job;
using workload::build_q94_engine_job;
using workload::build_q95_engine_job;
using workload::engine_answer_from_sink;
using workload::EngineAnswer;
using workload::EngineJob;
using workload::EngineQuery;
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

EngineAnswer run_distributed(const EngineJob& job, const cluster::PlacementPlan& plan) {
  auto store = storage::make_instant_store();
  exec::MiniEngine engine(job.dag, plan, *store);
  auto result = engine.run(job.bindings);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  if (!result.ok()) return {};
  auto answer = engine_answer_from_sink(result->sink_outputs.at(job.sink));
  EXPECT_TRUE(answer.ok());
  return answer.value_or(EngineAnswer{});
}

class EngineQueriesTest : public ::testing::TestWithParam<EngineQuery> {};

INSTANTIATE_TEST_SUITE_P(Queries, EngineQueriesTest, ::testing::ValuesIn(workload::engine_queries()),
                         [](const auto& info) {
                           return "Q" + std::string(info.param.name + 1);
                         });

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
  const EngineJob job = GetParam().build(spec);
  const EngineAnswer ref = GetParam().reference(job, spec);
  for (const auto& [dop, servers] : std::vector<std::pair<int, int>>{{1, 1}, {3, 2}, {4, 5}}) {
    const EngineAnswer got = run_distributed(job, round_robin_plan(job.dag, dop, servers));
    EXPECT_EQ(got.rows, ref.rows) << GetParam().name << " dop=" << dop;
    EXPECT_NEAR(got.value, ref.value, 1e-6) << GetParam().name << " dop=" << dop;
  }
}

TEST_P(EngineQueriesTest, DittoPlansAndExecutesIt) {
  const EngineQuerySpec spec = small_spec();
  const EngineJob job = GetParam().build(spec);
  const EngineAnswer ref = GetParam().reference(job, spec);

  // Instantiate physics over the builder's volumes and let Ditto plan
  // on a small cluster, exactly as it would plan a simulated job.
  JobDag model_dag = job.dag;
  workload::PhysicsParams physics;
  physics.store = storage::redis_model();
  workload::apply_physics(model_dag, physics);

  auto cl = cluster::Cluster::uniform(4, 8);
  scheduler::DittoScheduler sched;
  const auto plan = sched.schedule(model_dag, cl, Objective::kJct, storage::redis_model());
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_TRUE(plan->placement.validate(model_dag, cl).is_ok());

  // Execute the REAL job under the planned placement.
  auto store = storage::make_instant_store();
  exec::MiniEngine engine(job.dag, plan->placement, *store);
  cluster::RuntimeMonitor monitor;
  const auto result = engine.run(job.bindings, &monitor);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto got = engine_answer_from_sink(result->sink_outputs.at(job.sink));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->rows, ref.rows);
  EXPECT_NEAR(got->value, ref.value, 1e-6);

  // Grouped edges really exchanged zero-copy.
  if (!plan->placement.zero_copy_edges.empty()) {
    EXPECT_GT(result->stats.exchange.zero_copy_messages, 0u);
  }
  EXPECT_EQ(monitor.num_records(), result->stats.tasks_run);
}

// The four answers at small_spec(), as generated before Q95 joined the
// shared API: any change to data generation or query semantics moves
// them.
TEST(EngineQueriesPinTest, AnswersAtOneSmallSpec) {
  const std::map<std::string, EngineAnswer> pinned = {
      {"q1", {693, 685789.57739649562}},
      {"q16", {861, 412666.37115595507}},
      {"q94", {1082, 659659.93989248702}},
      {"q95", {183, 288669.24994933681}},
  };
  const EngineQuerySpec spec = small_spec();
  ASSERT_EQ(workload::engine_queries().size(), pinned.size());
  for (const EngineQuery& q : workload::engine_queries()) {
    const EngineAnswer ref = q.reference(q.build(spec), spec);
    EXPECT_EQ(ref.rows, pinned.at(q.name).rows) << q.name;
    EXPECT_DOUBLE_EQ(ref.value, pinned.at(q.name).value) << q.name;
  }
}

TEST(EngineQueriesPinTest, FindNamesTheCatalogueOnAMiss) {
  ASSERT_TRUE(workload::find_engine_query("q95").ok());
  EXPECT_EQ(workload::find_engine_query("q95")->build, &build_q95_engine_job);
  const auto miss = workload::find_engine_query("q99");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(miss.status().message().find("q1|q16|q94|q95"), std::string::npos);
}

TEST(EngineQueriesVolumeTest, AnnotationPopulatesEveryStageAndEdge) {
  const EngineJob job = build_q16_engine_job(small_spec());
  for (StageId s = 0; s < job.dag.num_stages(); ++s) {
    if (job.dag.parents(s).empty()) {
      EXPECT_GT(job.dag.stage(s).input_bytes(), 0u) << job.dag.stage(s).name();
    }
    EXPECT_GT(job.dag.stage(s).output_bytes(), 0u) << job.dag.stage(s).name();
  }
  for (const Edge& e : job.dag.edges()) EXPECT_GT(e.bytes, 0u);
}

TEST(EngineQueriesVolumeTest, Q95KeepsItsHandSetSelectivities) {
  // Source stages read their whole table; downstream stages keep fixed
  // fractions of web_sales (720000 bytes here); edges carry the
  // producer's output. These volumes decide Q95's Ditto plan.
  const EngineJob job = build_q95_engine_job(small_spec());
  ASSERT_EQ(job.sources.at("web_sales")->byte_size(), 720000u);
  const std::vector<std::pair<Bytes, Bytes>> want = {
      {720000, 432000},  // map1: sales, 6/10 of it
      {0, 120000},       // groupby: sales / 6
      {17904, 8952},     // map2: returns, half of it
      {0, 60000},        // reduce1: sales / 12
      {1920, 640},       // map3: dates, a third
      {0, 36000},        // join1: sales / 20
      {384, 96},         // map4: sites, a quarter
      {0, 24000},        // join2: sales / 30
      {0, 64},           // reduce2: one summary row
  };
  ASSERT_EQ(job.dag.num_stages(), want.size());
  for (StageId s = 0; s < job.dag.num_stages(); ++s) {
    EXPECT_EQ(job.dag.stage(s).input_bytes(), want[s].first) << job.dag.stage(s).name();
    EXPECT_EQ(job.dag.stage(s).output_bytes(), want[s].second) << job.dag.stage(s).name();
  }
  ASSERT_EQ(job.dag.edges().size(), 8u);
  for (const Edge& e : job.dag.edges()) EXPECT_EQ(e.bytes, want[e.src].second);
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

// ---------------------------------------------------------------------------
// Q95 only: the one miniature with streaming join bindings.
// ---------------------------------------------------------------------------

EngineQuerySpec q95_spec() {
  return {.fact_rows = 20000, .num_orders = 3000, .seed = 1234};
}

TEST(Q95EngineTest, PipelinedExecutionMatchesReference) {
  // Q95 with chunked pipelined shuffles, streaming the edges of a
  // model annotated with pipeline_all_shuffles(): the join stages
  // stream their probe sides (stream_fn bindings), the group-by
  // gathers on last chunk — the answer must match the reference
  // exactly, and the chunked protocol must actually engage.
  const EngineQuerySpec spec = q95_spec();
  const EngineJob job = build_q95_engine_job(spec);
  const EngineAnswer expected = workload::q95_engine_reference(job, spec);
  JobDag model = job.dag;
  workload::apply_physics(model, workload::PhysicsParams{});
  ASSERT_GT(workload::pipeline_all_shuffles(model), 0);

  auto store = storage::make_instant_store();
  const auto plan = round_robin_plan(job.dag, /*dop=*/3, /*servers=*/3);
  exec::EngineOptions options;
  options.stream_edges = workload::pipelined_edges(model);
  options.chunk_rows = 1024;  // small chunks so every stage streams several
  exec::MiniEngine engine(job.dag, plan, *store, options);
  const auto result = engine.run(job.bindings);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto answer = engine_answer_from_sink(result->sink_outputs.at(job.sink));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->rows, expected.rows);
  EXPECT_NEAR(answer->value, expected.value, 1e-6);
  EXPECT_GT(result->stats.exchange.chunks_published, result->stats.tasks_run);
  EXPECT_GT(result->stats.exchange.chunks_consumed, 0u);
  // Observed per-stage seconds are recorded for the drift loop.
  ASSERT_EQ(result->stats.stage_seconds.size(), job.dag.num_stages());
}

TEST(Q95EngineTest, DopDoesNotChangeTheAnswer) {
  const EngineQuerySpec spec = q95_spec();
  const EngineJob job = build_q95_engine_job(spec);
  const EngineAnswer expected = workload::q95_engine_reference(job, spec);
  for (int dop : {1, 2, 6}) {
    const EngineAnswer got = run_distributed(job, round_robin_plan(job.dag, dop, 2));
    EXPECT_EQ(got.rows, expected.rows) << "dop " << dop;
    EXPECT_NEAR(got.value, expected.value, 1e-6) << "dop " << dop;
  }
}

TEST(Q95EngineTest, MonitorFeedbackTunesStragglers) {
  const EngineJob job = build_q95_engine_job(q95_spec());
  auto store = storage::make_instant_store();
  const auto plan = round_robin_plan(job.dag, 4, 2);
  exec::MiniEngine engine(job.dag, plan, *store);
  cluster::RuntimeMonitor monitor;
  ASSERT_TRUE(engine.run(job.bindings, &monitor).ok());
  JobDag dag = job.dag;
  cluster::FeedbackOptions opts;
  opts.straggler_blend = 1.0;
  EXPECT_GT(cluster::tune_stragglers_from_monitor(dag, monitor, opts), 0);
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    EXPECT_GE(dag.stage(s).straggler_scale(), 1.0);
  }
}

}  // namespace
}  // namespace ditto
