// Closed-loop profiling end to end on the Q95 engine miniature:
// run 1 records per-stage profiles under the plan fingerprint and
// persists them; a fresh store loads them back; refit_from_profiles
// recalibrates the model DAG; and the recalibrated predictions track a
// second run far better than the hand-seeded physics model (which is
// in modeled seconds, not engine wall time). Also: the execution
// report renders critical-path attribution and prediction accuracy.
#include <gtest/gtest.h>

#include "cluster/runtime_monitor.h"
#include "dag/dag_algorithms.h"
#include "exec/engine.h"
#include "obs/profile_store.h"
#include "obs/report.h"
#include "scheduler/ditto_scheduler.h"
#include "storage/mem_store.h"
#include "storage/sim_store.h"
#include "timemodel/drift.h"
#include "timemodel/fitting.h"
#include "timemodel/predictor.h"
#include "workload/engine_queries.h"
#include "workload/physics.h"

namespace ditto {
namespace {

struct Fixture {
  workload::EngineJob job =
      workload::build_q95_engine_job({.fact_rows = 20000, .num_orders = 3000, .seed = 1234});
  JobDag model_dag;
  std::uint64_t fingerprint = 0;

  Fixture() {
    model_dag = job.dag;
    workload::PhysicsParams physics;
    physics.store = storage::redis_model();
    workload::apply_physics(model_dag, physics);
    fingerprint = structural_fingerprint(model_dag);
  }

  cluster::PlacementPlan uniform_plan(int dop, int servers) const {
    cluster::PlacementPlan plan;
    plan.dop.assign(job.dag.num_stages(), dop);
    plan.task_server.resize(job.dag.num_stages());
    int next = 0;
    for (StageId s = 0; s < job.dag.num_stages(); ++s) {
      plan.task_server[s].resize(dop);
      for (int t = 0; t < dop; ++t) {
        plan.task_server[s][t] = static_cast<ServerId>(next++ % servers);
      }
    }
    return plan;
  }

  /// One engine run recording profiles for this job's fingerprint.
  void run_once(const cluster::PlacementPlan& plan, obs::StageProfileStore* profiles,
                cluster::RuntimeMonitor* monitor) const {
    workload::EngineJob copy = job;
    auto store = storage::make_instant_store();
    exec::EngineOptions options;
    options.profiles = profiles;
    options.plan_fingerprint = fingerprint;
    exec::MiniEngine engine(copy.dag, plan, *store, options);
    const auto result = engine.run(copy.bindings, monitor);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
  }
};

DriftSummary drift_against(const JobDag& model, const cluster::RuntimeMonitor& monitor,
                           int dop) {
  const ExecTimePredictor predictor(model);
  std::vector<StageDriftSample> samples;
  for (StageId s = 0; s < model.num_stages(); ++s) {
    const cluster::StageSummary summary = monitor.stage_summary(s);
    if (summary.tasks == 0 || summary.mean_task_time <= 0.0) continue;
    StageDriftSample d;
    d.stage = s;
    d.dop = dop;
    d.predicted_seconds = predictor.stage_time(s, dop, nothing_colocated());
    d.observed_seconds = summary.mean_task_time;
    samples.push_back(d);
  }
  EXPECT_FALSE(samples.empty());
  return summarize_drift(samples);
}

TEST(ClosedLoopTest, SecondSubmissionLoadsProfilesAndRefitBeatsHandSeeded) {
  const Fixture f;
  const cluster::PlacementPlan plan = f.uniform_plan(/*dop=*/2, /*servers=*/2);

  // Run 1: record profiles, as a long-lived service does across
  // submissions of a recurring job.
  obs::StageProfileStore run1_profiles;
  cluster::RuntimeMonitor run1_monitor;
  f.run_once(plan, &run1_profiles, &run1_monitor);
  EXPECT_GT(run1_profiles.size(), 0u);
  for (const obs::StageProfile& p : run1_profiles.all()) {
    EXPECT_EQ(p.fingerprint, f.fingerprint);
    EXPECT_EQ(p.dop, 2);
    EXPECT_GT(p.ewma_task, 0.0);
  }

  // Second submission: refit the model from run 1's history.
  JobDag refit_dag = f.model_dag;
  const auto refit = refit_from_profiles(run1_profiles, f.fingerprint, refit_dag);
  ASSERT_TRUE(refit.ok()) << refit.status().to_string();
  EXPECT_EQ(refit->fingerprint, f.fingerprint);
  EXPECT_FALSE(refit->stages.empty());
  for (const StageRefit& sr : refit->stages) {
    EXPECT_TRUE(sr.pinned);  // one DoP of history -> pinned models
    EXPECT_EQ(sr.distinct_dops, 1u);
  }

  // Run 2 (the recurring submission): the refit model must predict it
  // no worse than the hand-seeded physics model. Hand-seeded models
  // are in modeled seconds against a simulated store — orders of
  // magnitude off real engine wall time — while the refit is pinned at
  // the operating DoP from run 1's measurements.
  cluster::RuntimeMonitor run2_monitor;
  f.run_once(plan, nullptr, &run2_monitor);
  const DriftSummary hand = drift_against(f.model_dag, run2_monitor, 2);
  const DriftSummary calibrated = drift_against(refit_dag, run2_monitor, 2);
  EXPECT_LE(calibrated.mean_abs_rel_error, hand.mean_abs_rel_error)
      << "refit mean " << calibrated.mean_abs_rel_error << " vs hand-seeded "
      << hand.mean_abs_rel_error;
}

TEST(ClosedLoopTest, ReportCarriesCriticalPathAndPredictionAccuracy) {
  const Fixture f;
  auto cl = cluster::Cluster::uniform(3, 4);
  scheduler::DittoScheduler sched;
  const auto plan = sched.schedule(f.model_dag, cl, Objective::kJct, storage::redis_model());
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  cluster::RuntimeMonitor monitor;
  obs::StageProfileStore profiles;
  f.run_once(plan->placement, &profiles, &monitor);

  obs::ReportExtras extras;
  extras.model_dag = &f.model_dag;
  const obs::ExecutionReport report =
      obs::build_execution_report(f.model_dag, *plan, Objective::kJct, monitor, extras);

  // Critical path: non-empty, ends at the latest-finishing stage, and
  // its attribution sums to the path total.
  ASSERT_FALSE(report.critical_path.empty());
  EXPECT_GT(report.critical_path.total_seconds, 0.0);
  EXPECT_GT(report.critical_path.path_seconds, 0.0);

  // Prediction accuracy joined per stage.
  ASSERT_TRUE(report.accuracy.enabled);
  EXPECT_FALSE(report.accuracy.rows.empty());
  EXPECT_GT(report.accuracy.max_abs_rel_error, 0.0);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("critical path"), std::string::npos) << text;
  EXPECT_NE(text.find("prediction accuracy"), std::string::npos) << text;
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"accuracy\""), std::string::npos);
}

}  // namespace
}  // namespace ditto
