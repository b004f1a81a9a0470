#include "obs/report.h"

#include <gtest/gtest.h>

#include "scheduler/ditto_scheduler.h"
#include "sim/job_simulator.h"
#include "sim/sim_runner.h"
#include "storage/sim_store.h"
#include "support/json_parse.h"
#include "workload/queries.h"

namespace ditto::obs {
namespace {

/// Real pipeline fixture: schedule + simulate Q95, then report on it.
/// Constructed in place (RuntimeMonitor is neither copyable nor movable).
struct ReportFixture {
  JobDag dag;
  scheduler::SchedulePlan plan;
  cluster::RuntimeMonitor monitor;

  ReportFixture() : dag(make_dag()) {
    auto cl = cluster::Cluster::paper_testbed(cluster::zipf_0_9());
    scheduler::DittoScheduler sched;
    const auto r = sim::run_experiment(dag, cl, sched, Objective::kJct, storage::s3_model());
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    plan = r->plan;
    sim::JobSimulator::export_records(r->sim, monitor);
  }

  static JobDag make_dag() {
    workload::PhysicsParams physics;
    physics.store = storage::s3_model();
    return workload::build_query(workload::QueryId::kQ95, 1000, physics);
  }
};

TEST(ExecutionReportTest, JoinsPlanAndRuntimePerStage) {
  const ReportFixture f;
  const ExecutionReport report =
      build_execution_report(f.dag, f.plan, Objective::kJct, f.monitor);

  EXPECT_EQ(report.job, f.dag.name());
  EXPECT_EQ(report.scheduler, f.plan.scheduler_name);
  EXPECT_EQ(report.objective, "JCT");
  EXPECT_GT(report.predicted_jct, 0.0);
  EXPECT_GT(report.actual_jct, 0.0);

  // One row per stage, carrying both the planned DoP and the observed
  // task aggregates.
  ASSERT_EQ(report.stages.size(), f.dag.num_stages());
  for (StageId s = 0; s < f.dag.num_stages(); ++s) {
    const StageReportRow& row = report.stages[s];
    EXPECT_EQ(row.stage, s);
    EXPECT_EQ(row.name, f.dag.stage(s).name());
    EXPECT_EQ(row.dop, f.plan.placement.dop[s]);
    EXPECT_EQ(row.tasks_observed, static_cast<std::size_t>(f.plan.placement.dop[s]));
    EXPECT_GE(row.end, row.start);
    EXPECT_GE(row.max_task_time, row.mean_task_time);
  }
  EXPECT_EQ(report.zero_copy_edges, f.plan.placement.zero_copy_edges.size());
  EXPECT_FALSE(report.plan_text.empty());
}

TEST(ExecutionReportTest, TextRenderingMentionsEveryStage) {
  const ReportFixture f;
  const ExecutionReport report =
      build_execution_report(f.dag, f.plan, Objective::kJct, f.monitor);
  const std::string text = report.to_text();
  for (StageId s = 0; s < f.dag.num_stages(); ++s) {
    EXPECT_NE(text.find(f.dag.stage(s).name()), std::string::npos)
        << "missing stage " << f.dag.stage(s).name();
  }
  EXPECT_NE(text.find("predicted"), std::string::npos);
}

TEST(ExecutionReportTest, JsonParsesAndCarriesStages) {
  const ReportFixture f;
  ReportExtras extras;
  extras.actual_cost = 12.5;
  const ExecutionReport report =
      build_execution_report(f.dag, f.plan, Objective::kJct, f.monitor, extras);

  const auto doc = parse_json(report.to_json());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(doc->find("job")->as_string(), f.dag.name());
  EXPECT_EQ(doc->find("objective")->as_string(), "JCT");
  EXPECT_DOUBLE_EQ(doc->find("actual_cost")->as_number(), 12.5);
  const JsonValue* stages = doc->find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_TRUE(stages->is_array());
  ASSERT_EQ(stages->as_array().size(), f.dag.num_stages());
  for (const JsonValue& row : stages->as_array()) {
    EXPECT_NE(row.find("name"), nullptr);
    EXPECT_GT(row.find("dop")->as_number(), 0.0);
    EXPECT_GE(row.find("end")->as_number(), row.find("start")->as_number());
  }
}

TEST(ExecutionReportTest, ExtrasEmbedTraceCountAndMetrics) {
  const ReportFixture f;
  TraceCollector trace;
  trace.set_enabled(true);
  trace.span("engine.task", "x", 0, 1);
  MetricsRegistry metrics;
  metrics.counter("engine.tasks_total").add(7);

  ReportExtras extras;
  extras.trace = &trace;
  extras.metrics = &metrics;
  const ExecutionReport report =
      build_execution_report(f.dag, f.plan, Objective::kJct, f.monitor, extras);
  EXPECT_EQ(report.trace_events, 1u);
  EXPECT_NE(report.metrics_text.find("engine.tasks_total"), std::string::npos);
}

TEST(ExecutionReportTest, CacheSectionRendersInTextAndJson) {
  const ReportFixture f;
  CacheSection cache;
  cache.enabled = true;
  cache.hits = 6;
  cache.partial_hits = 2;
  cache.misses = 2;
  cache.stage_hits = 14;
  cache.dedup_followers = 3;
  cache.insertions = 9;
  cache.evictions = 1;
  cache.entries = 8;
  cache.bytes = 4096;
  cache.slot_seconds_saved = 12.5;
  EXPECT_NEAR(cache.hit_rate(), 0.8, 1e-12);

  ReportExtras extras;
  extras.cache = &cache;
  const ExecutionReport report =
      build_execution_report(f.dag, f.plan, Objective::kJct, f.monitor, extras);
  ASSERT_TRUE(report.cache.enabled);
  EXPECT_EQ(report.cache.hits, 6u);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("result cache:"), std::string::npos);
  EXPECT_NE(text.find("6 hits, 2 partial, 2 misses"), std::string::npos);
  EXPECT_NE(text.find("hit rate 80%"), std::string::npos);
  EXPECT_NE(text.find("3 dedup followers"), std::string::npos);
  EXPECT_NE(text.find("slot-seconds saved: 12.5"), std::string::npos);

  const auto parsed = parse_json(report.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const JsonValue* c = parsed->find("cache");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->find("hits")->as_number(), 6.0);
  EXPECT_DOUBLE_EQ(c->find("partial_hits")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(c->find("misses")->as_number(), 2.0);
  EXPECT_NEAR(c->find("hit_rate")->as_number(), 0.8, 1e-9);
  EXPECT_DOUBLE_EQ(c->find("stage_hits")->as_number(), 14.0);
  EXPECT_DOUBLE_EQ(c->find("dedup_followers")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(c->find("entries")->as_number(), 8.0);
  EXPECT_DOUBLE_EQ(c->find("bytes")->as_number(), 4096.0);
  EXPECT_NEAR(c->find("slot_seconds_saved")->as_number(), 12.5, 1e-9);
}

TEST(ExecutionReportTest, CacheSectionOmittedWhenDisabled) {
  const ReportFixture f;
  const ExecutionReport report =
      build_execution_report(f.dag, f.plan, Objective::kJct, f.monitor);
  EXPECT_FALSE(report.cache.enabled);
  EXPECT_EQ(report.to_text().find("result cache:"), std::string::npos);
  EXPECT_EQ(report.to_json().find("\"cache\""), std::string::npos);
}

TEST(ExecutionReportTest, PredictionErrorIsZeroWithoutActual) {
  ExecutionReport report;
  report.predicted_jct = 10.0;
  EXPECT_DOUBLE_EQ(report.jct_prediction_error(), 0.0);
  report.actual_jct = 8.0;
  EXPECT_NEAR(report.jct_prediction_error(), 0.25, 1e-12);
}

TEST(ExecutionReportTest, EmptyMonitorStillReportsPlan) {
  // Engine-less report: plan data present, runtime rows observe zero
  // tasks. Must not crash or divide by zero.
  workload::PhysicsParams physics;
  physics.store = storage::s3_model();
  const JobDag dag = workload::build_query(workload::QueryId::kQ1, 1000, physics);
  scheduler::SchedulePlan plan;
  plan.scheduler_name = "Test";
  plan.placement.dop.assign(dag.num_stages(), 1);
  plan.placement.task_server.assign(dag.num_stages(), {0});
  cluster::RuntimeMonitor monitor;
  const ExecutionReport report =
      build_execution_report(dag, plan, Objective::kCost, monitor);
  EXPECT_EQ(report.objective, "cost");
  ASSERT_EQ(report.stages.size(), dag.num_stages());
  for (const StageReportRow& row : report.stages) {
    EXPECT_EQ(row.tasks_observed, 0u);
  }
  const auto doc = parse_json(report.to_json());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
}

}  // namespace
}  // namespace ditto::obs
