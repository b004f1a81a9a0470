#include "scheduler/explain.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "scheduler/ditto_scheduler.h"
#include "storage/sim_store.h"
#include "workload/queries.h"

namespace ditto::scheduler {
namespace {

TEST(ExplainTest, MentionsEveryStageAndTheGroups) {
  workload::PhysicsParams physics;
  physics.store = storage::s3_model();
  const JobDag dag = workload::build_query(workload::QueryId::kQ95, 1000, physics);
  auto cl = cluster::Cluster::paper_testbed(cluster::zipf_0_9());
  DittoScheduler sched;
  const auto plan = sched.schedule(dag, cl, Objective::kJct, storage::s3_model());
  ASSERT_TRUE(plan.ok());

  const std::string text = explain_plan(dag, *plan);
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    EXPECT_NE(text.find(dag.stage(s).name()), std::string::npos)
        << "missing stage " << dag.stage(s).name();
  }
  EXPECT_NE(text.find("predicted JCT"), std::string::npos);
  EXPECT_NE(text.find("zero-copy groups"), std::string::npos);
  EXPECT_NE(text.find("Ditto"), std::string::npos);
}

TEST(ExplainTest, NoGroupsReadsExplicitly) {
  workload::PhysicsParams physics;
  physics.store = storage::s3_model();
  const JobDag dag = workload::build_query(workload::QueryId::kQ1, 1000, physics);
  SchedulePlan plan;
  plan.scheduler_name = "Test";
  plan.placement.dop.assign(dag.num_stages(), 1);
  plan.placement.task_server.assign(dag.num_stages(), {0});
  const std::string text = explain_plan(dag, plan);
  EXPECT_NE(text.find("none"), std::string::npos);
}

}  // namespace
}  // namespace ditto::scheduler
