// End-to-end validation of the exported observability artifacts: run a
// real query through the pipeline, write the Chrome trace JSON to disk,
// parse it back, and check the invariants a viewer depends on. This is
// the test behind the "dittoctl --trace-out produces a valid trace"
// acceptance criterion.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "exec/datagen.h"
#include "exec/engine.h"
#include "exec/operators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scheduler/ditto_scheduler.h"
#include "sim/sim_runner.h"
#include "sim/trace_export.h"
#include "storage/sim_store.h"
#include "support/json_parse.h"
#include "workload/queries.h"

namespace ditto::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

TEST(TraceIntegrationTest, SimulatedRunExportsValidChromeTrace) {
  workload::PhysicsParams physics;
  physics.store = storage::s3_model();
  const JobDag dag = workload::build_query(workload::QueryId::kQ95, 1000, physics);
  auto cl = cluster::Cluster::paper_testbed(cluster::zipf_0_9());
  scheduler::DittoScheduler sched;
  const auto r = sim::run_experiment(dag, cl, sched, Objective::kJct, storage::s3_model());
  ASSERT_TRUE(r.ok()) << r.status().to_string();

  TraceCollector tc;
  tc.set_enabled(true);
  sim::export_trace(dag, r->plan.placement, r->sim, tc);
  const std::string path = ::testing::TempDir() + "ditto_trace_test.json";
  ASSERT_TRUE(tc.write_chrome_json(path).is_ok());

  // The artifact on disk — not the in-memory collector — must parse.
  const auto doc = parse_json(read_file(path));
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->as_array().empty());

  std::set<std::string> stage_spans;
  std::size_t task_spans = 0;
  std::set<std::string> counter_tracks;
  for (const JsonValue& e : events->as_array()) {
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "X") {
      // Every span carries a non-negative ts + dur.
      EXPECT_GE(e.find("ts")->as_number(), 0.0);
      EXPECT_GE(e.find("dur")->as_number(), 0.0);
      const std::string cat = e.find("cat")->as_string();
      if (cat == "sim.stage") stage_spans.insert(e.find("name")->as_string());
      if (cat == "sim.task") ++task_spans;
    } else if (ph->as_string() == "C") {
      counter_tracks.insert(e.find("name")->as_string());
      EXPECT_GE(e.find("args")->find("value")->as_number(), 0.0);
    }
  }

  // One stage span per stage, one task span per scheduled task.
  EXPECT_EQ(stage_spans.size(), dag.num_stages());
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    EXPECT_TRUE(stage_spans.count(dag.stage(s).name()))
        << "no span for stage " << dag.stage(s).name();
  }
  std::size_t total_tasks = 0;
  for (int d : r->plan.placement.dop) total_tasks += static_cast<std::size_t>(d);
  EXPECT_EQ(task_spans, total_tasks);

  // Both data-movement counter tracks must be present.
  EXPECT_TRUE(counter_tracks.count("zero_copy_bytes")) << "zero-copy track missing";
  EXPECT_TRUE(counter_tracks.count("remote_bytes")) << "remote track missing";
}

/// Engine-mode smoke: with observability on, an end-to-end scheduled +
/// executed query must leave nonzero metrics from every instrumented
/// layer and per-task spans in the trace.
TEST(TraceIntegrationTest, EngineRunPopulatesAllMetricFamilies) {
  MetricsRegistry& mx = MetricsRegistry::global();
  TraceCollector& tc = TraceCollector::global();
  mx.reset();
  tc.clear();
  set_observability_enabled(true);

  // Scheduler layer: plan a real query so scheduler.* metrics fire.
  {
    workload::PhysicsParams physics;
    physics.store = storage::s3_model();
    const JobDag qdag = workload::build_query(workload::QueryId::kQ95, 1000, physics);
    auto cl = cluster::Cluster::paper_testbed(cluster::zipf_0_9());
    scheduler::DittoScheduler sched;
    ASSERT_TRUE(sched.schedule(qdag, cl, Objective::kJct, storage::s3_model()).ok());
  }

  // Engine + exchange + storage layers: run a two-stage group-by with a
  // placement that mixes co-located and cross-server pipes.
  {
    const exec::Table fact = exec::gen_fact_table({.rows = 2000, .seed = 7});
    JobDag dag("obs-e2e");
    const StageId scan = dag.add_stage("scan");
    const StageId agg = dag.add_stage("agg");
    ASSERT_TRUE(dag.add_edge(scan, agg, ExchangeKind::kShuffle).is_ok());
    cluster::PlacementPlan plan;
    plan.dop = {2, 2};
    plan.task_server = {{0, 1}, {0, 1}};  // mixed: some local, some remote
    auto store = storage::make_instant_store();
    exec::MiniEngine engine(dag, plan, *store);
    std::map<StageId, exec::StageBinding> bindings;
    bindings[scan] = exec::StageBinding{
        [src = std::make_shared<const exec::Table>(fact)](
            int task, int dop, const std::vector<exec::Table>&) -> Result<exec::Table> {
          return exec::range_slice(src, task, dop);
        },
        "warehouse_id"};
    bindings[agg] = exec::StageBinding{
        [](int, int, const std::vector<exec::Table>& in) -> Result<exec::Table> {
          return exec::group_by(in.at(0), "warehouse_id", {{exec::AggKind::kCount, "", "n"}});
        },
        ""};
    ASSERT_TRUE(engine.run(bindings).ok());
  }

  set_observability_enabled(false);

  // Every instrumented subsystem shows up nonzero in one snapshot.
  const std::string text = mx.to_text();
  const auto counter_at_least = [&mx](const std::string& name, const MetricLabels& labels) {
    return mx.counter(name, labels).value();
  };
  EXPECT_GE(counter_at_least("scheduler.plans_total", {{"scheduler", "Ditto"}}), 1u) << text;
  EXPECT_GE(counter_at_least("engine.tasks_total", {}), 4u) << text;
  EXPECT_GE(counter_at_least("exchange.messages", {{"path", "zero_copy"}}), 1u) << text;
  EXPECT_GE(counter_at_least("exchange.messages", {{"path", "remote"}}), 1u) << text;
  EXPECT_GE(counter_at_least("storage.requests", {{"kind", "instant"}, {"op", "put"}}), 1u)
      << text;

  // And the trace carries per-task engine spans plus the plan instant.
  std::size_t task_spans = 0, plan_instants = 0;
  for (const TraceEvent& e : tc.events()) {
    if (e.phase == EventPhase::kSpan && e.cat == "engine.task") ++task_spans;
    if (e.phase == EventPhase::kInstant && e.name == "plan-chosen") ++plan_instants;
  }
  EXPECT_EQ(task_spans, 4u);
  EXPECT_GE(plan_instants, 1u);

  mx.reset();
  tc.clear();
}

}  // namespace
}  // namespace ditto::obs
