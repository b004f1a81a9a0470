// Full-stack integration: the Ditto scheduler plans the engine-
// executable Q95, and the MiniEngine runs it on real data. Verifies
// (a) distributed answers match the single-node reference under any
// placement, (b) Ditto's plan drives real zero-copy exchange, and
// (c) the whole pipeline (annotate -> physics -> profile -> schedule
// -> execute) composes.
#include <gtest/gtest.h>

#include "cluster/feedback.h"
#include "exec/engine.h"
#include "scheduler/ditto_scheduler.h"
#include "sim/sim_runner.h"
#include "storage/sim_store.h"
#include "workload/physics.h"
#include "workload/pipelining.h"
#include "workload/q95_engine.h"

namespace ditto {
namespace {

using workload::build_q95_engine_job;
using workload::q95_answer_from_sink;
using workload::q95_reference;
using workload::Q95EngineJob;
using workload::Q95EngineSpec;

Q95EngineSpec small_spec() {
  Q95EngineSpec spec;
  spec.sales_rows = 20000;
  spec.num_orders = 3000;
  return spec;
}

cluster::PlacementPlan uniform_plan(const JobDag& dag, int dop, int servers) {
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

TEST(Q95EngineTest, ReferenceAnswerIsNontrivial) {
  const Q95EngineSpec spec = small_spec();
  const Q95EngineJob job = build_q95_engine_job(spec);
  const auto answer = q95_reference(job, spec);
  EXPECT_GT(answer.order_count, 10);
  EXPECT_LT(answer.order_count, static_cast<std::int64_t>(spec.num_orders));
  EXPECT_GT(answer.total_revenue, 0.0);
}

TEST(Q95EngineTest, DistributedMatchesReferenceAcrossPlacements) {
  const Q95EngineSpec spec = small_spec();
  Q95EngineJob job = build_q95_engine_job(spec);
  const auto expected = q95_reference(job, spec);

  for (int servers : {1, 3, 5}) {
    auto store = storage::make_instant_store();
    const auto plan = uniform_plan(job.dag, /*dop=*/3, servers);
    exec::MiniEngine engine(job.dag, plan, *store);
    const auto result = engine.run(job.bindings);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto answer = q95_answer_from_sink(result->sink_outputs.at(8));
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->order_count, expected.order_count) << servers << " servers";
    EXPECT_NEAR(answer->total_revenue, expected.total_revenue, 1e-6);
  }
}

TEST(Q95EngineTest, PipelinedExecutionMatchesReference) {
  // Q95 with chunked pipelined shuffles, streaming the edges of a
  // model annotated with pipeline_all_shuffles(): the join stages
  // stream their probe sides (stream_fn bindings), the group-by
  // gathers on last chunk — the answer must match the reference
  // exactly, and the chunked protocol must actually engage.
  const Q95EngineSpec spec = small_spec();
  Q95EngineJob job = build_q95_engine_job(spec);
  const auto expected = q95_reference(job, spec);
  workload::annotate_q95_volumes(job);
  JobDag model = job.dag;
  workload::apply_physics(model, workload::PhysicsParams{});
  ASSERT_GT(workload::pipeline_all_shuffles(model), 0);

  auto store = storage::make_instant_store();
  const auto plan = uniform_plan(job.dag, /*dop=*/3, /*servers=*/3);
  exec::EngineOptions options;
  options.stream_edges = workload::pipelined_edges(model);
  options.chunk_rows = 1024;  // small chunks so every stage streams several
  exec::MiniEngine engine(job.dag, plan, *store, options);
  const auto result = engine.run(job.bindings);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto answer = q95_answer_from_sink(result->sink_outputs.at(8));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->order_count, expected.order_count);
  EXPECT_NEAR(answer->total_revenue, expected.total_revenue, 1e-6);
  EXPECT_GT(result->stats.exchange.chunks_published, result->stats.tasks_run);
  EXPECT_GT(result->stats.exchange.chunks_consumed, 0u);
  // Observed per-stage seconds are recorded for the drift loop.
  ASSERT_EQ(result->stats.stage_seconds.size(), job.dag.num_stages());
}

TEST(Q95EngineTest, DopDoesNotChangeTheAnswer) {
  const Q95EngineSpec spec = small_spec();
  Q95EngineJob job = build_q95_engine_job(spec);
  const auto expected = q95_reference(job, spec);
  for (int dop : {1, 2, 6}) {
    auto store = storage::make_instant_store();
    const auto plan = uniform_plan(job.dag, dop, 2);
    exec::MiniEngine engine(job.dag, plan, *store);
    const auto result = engine.run(job.bindings);
    ASSERT_TRUE(result.ok());
    const auto answer = q95_answer_from_sink(result->sink_outputs.at(8));
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->order_count, expected.order_count) << "dop " << dop;
  }
}

TEST(Q95EngineTest, DittoPlanDrivesRealExecution) {
  const Q95EngineSpec spec = small_spec();
  Q95EngineJob job = build_q95_engine_job(spec);
  const auto expected = q95_reference(job, spec);

  // Annotate volumes, instantiate physics, and let Ditto plan on a
  // small cluster, exactly as it would plan a simulated job.
  workload::annotate_q95_volumes(job);
  JobDag model_dag = job.dag;
  workload::PhysicsParams physics;
  physics.store = storage::redis_model();
  workload::apply_physics(model_dag, physics);

  auto cl = cluster::Cluster::uniform(/*servers=*/4, /*slots=*/8);
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
  const auto answer = q95_answer_from_sink(result->sink_outputs.at(8));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->order_count, expected.order_count);
  EXPECT_NEAR(answer->total_revenue, expected.total_revenue, 1e-6);

  // Grouped edges really exchanged zero-copy.
  if (!plan->placement.zero_copy_edges.empty()) {
    EXPECT_GT(result->stats.exchange.zero_copy_messages, 0u);
  }
  EXPECT_EQ(monitor.num_records(), result->stats.tasks_run);
}

TEST(Q95EngineTest, MonitorFeedbackTunesStragglers) {
  const Q95EngineSpec spec = small_spec();
  Q95EngineJob job = build_q95_engine_job(spec);
  auto store = storage::make_instant_store();
  const auto plan = uniform_plan(job.dag, 4, 2);
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
