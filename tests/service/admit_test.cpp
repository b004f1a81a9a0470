// The JobService admit phase as a pure function: decisions from a
// queue, one ledger snapshot and the result cache, with no job run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dag/dag_algorithms.h"
#include "exec/datagen.h"
#include "exec/serde.h"
#include "service/job_service.h"
#include "storage/sim_store.h"
#include "workload/micro.h"
#include "workload/physics.h"

namespace ditto::service {
namespace {

using Kind = Admission::Kind;

workload::PhysicsParams redis_physics() {
  workload::PhysicsParams physics;
  physics.store = storage::redis_model();
  return physics;
}

/// scan -> agg -> final over shuffles, with an enabled cache identity.
/// Admission never calls the bindings.
JobSubmission small_job(const std::string& label) {
  JobDag dag(label);
  for (const char* name : {"scan", "agg", "final"}) dag.add_stage(name);
  EXPECT_TRUE(dag.add_edge(0, 1, ExchangeKind::kShuffle).is_ok());
  EXPECT_TRUE(dag.add_edge(1, 2, ExchangeKind::kShuffle).is_ok());
  JobSubmission sub;
  sub.label = label;
  sub.dag = dag;
  for (StageId s = 0; s < 3; ++s) {
    sub.bindings[s] = exec::StageBinding{
        [](int, int, const std::vector<exec::Table>&) -> Result<exec::Table> {
          return exec::Table{};
        },
        "warehouse_id"};
  }
  JobDag model = dag;
  for (StageId s = 0; s < 3; ++s) {
    model.stage(s).set_input_bytes(64_MB);
    model.stage(s).set_output_bytes(32_MB);
  }
  workload::apply_physics(model, redis_physics());
  sub.model_dag = std::move(model);
  sub.cache_id.plan_fingerprint = structural_fingerprint(sub.model_dag);
  sub.cache_id.input_signature = "sig";
  return sub;
}

/// A chain longer than the 8-slot cluster can host at once: the
/// scheduler finds no plan for any offer.
JobSubmission oversized_job() {
  JobSubmission sub;
  sub.label = "oversized";
  sub.model_dag = workload::chain_dag(64, 1_GB, 0.9, redis_physics());
  sub.dag = sub.model_dag;
  return sub;
}

LedgerView view_of(std::vector<int> free, int leased) {
  LedgerView view;
  view.free = std::move(free);
  view.leased = leased;
  view.total = 8;
  view.arena_free.assign(view.free.size(), 1_GB * 1024);
  return view;
}

QueuedJob queued(JobId id, const JobSubmission& sub) {
  QueuedJob job;
  job.id = id;
  job.sub = &sub;
  return job;
}

storage::Payload serialized(const exec::Table& table) {
  return std::make_shared<const std::string>(exec::serialize_table_to_string(table));
}

ServiceOptions elastic() {
  ServiceOptions options;
  options.external = storage::redis_model();
  return options;
}

TEST(AdmitPassTest, WholeHitIsServedFromTheCacheWithTheCachedBytes) {
  const JobSubmission sub = small_job("hit");
  const exec::Table sink = exec::gen_fact_table({.rows = 50, .num_warehouses = 4, .seed = 3});
  ResultCache cache(0);
  const storage::Payload bytes = serialized(sink);
  cache.insert(sub.cache_id, 2, bytes, 1.5);

  const auto decisions =
      admit_pass({queued(1, sub)}, view_of({4, 4}, 0), &cache, elastic(), 0.0);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, Kind::kServe);
  ASSERT_EQ(decisions[0].served.bytes.size(), 1u);
  EXPECT_EQ(decisions[0].served.bytes[0].second, bytes);  // shared, not copied
  EXPECT_EQ(decisions[0].served.sinks.at(2).num_rows(), sink.num_rows());
  EXPECT_DOUBLE_EQ(decisions[0].served.slot_seconds, 1.5);
  EXPECT_TRUE(decisions[0].plan.task_server.empty());  // no slots planned

  // A job whose served hit failed to persist its sinks is planned.
  QueuedJob cold = queued(1, sub);
  cold.skip_whole_hit = true;
  const auto rerun = admit_pass({cold}, view_of({4, 4}, 0), &cache, elastic(), 0.0);
  ASSERT_EQ(rerun.size(), 1u);
  EXPECT_EQ(rerun[0].kind, Kind::kRun) << rerun[0].error.to_string();
  EXPECT_FALSE(rerun[0].plan.task_server.empty());
}

TEST(AdmitPassTest, PartialHitIsPrunedBeforePlanning) {
  const JobSubmission sub = small_job("partial");
  ResultCache cache(0);
  cache.insert(sub.cache_id, 0,
               serialized(exec::gen_fact_table({.rows = 50, .num_warehouses = 4, .seed = 3})));

  const auto decisions =
      admit_pass({queued(1, sub)}, view_of({4, 4}, 0), &cache, elastic(), 0.0);
  ASSERT_EQ(decisions.size(), 1u);
  const Admission& a = decisions[0];
  ASSERT_EQ(a.kind, Kind::kRun) << a.error.to_string();
  ASSERT_NE(a.pruned, nullptr);
  EXPECT_FALSE(a.cache_miss);
  EXPECT_EQ(a.pruned->reused_stages, 1u);
  EXPECT_TRUE(a.pruned->is_replay.at(0));  // the cached scan replays
  EXPECT_EQ(a.plan.task_server.size(), a.pruned->model.num_stages());

  // A miss plans the whole DAG and says so.
  ResultCache empty(0);
  const auto cold = admit_pass({queued(1, sub)}, view_of({4, 4}, 0), &empty, elastic(), 0.0);
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(cold[0].kind, Kind::kRun);
  EXPECT_EQ(cold[0].pruned, nullptr);
  EXPECT_TRUE(cold[0].cache_miss);
}

TEST(AdmitPassTest, PlansWithinAPartialOffer) {
  const JobSubmission sub = small_job("partial-offer");
  const LedgerView view = view_of({1, 3}, 4);
  const auto decisions = admit_pass({queued(1, sub)}, view, nullptr, elastic(), 0.0);
  ASSERT_EQ(decisions.size(), 1u);
  const Admission& a = decisions[0];
  ASSERT_EQ(a.kind, Kind::kRun) << a.error.to_string();
  ASSERT_EQ(a.demand.size(), 2u);
  int slots = 0;
  for (std::size_t v = 0; v < 2; ++v) {
    EXPECT_LE(a.demand[v], view.free[v]) << "server " << v;
    slots += a.demand[v];
  }
  EXPECT_GT(slots, 0);
  ASSERT_EQ(a.charge.size(), 2u);
}

TEST(AdmitPassTest, UnplannableJobFailsUnavailableOnlyAtTheMaximalOffer) {
  const JobSubmission sub = oversized_job();
  const auto idle = admit_pass({queued(1, sub)}, view_of({4, 4}, 0), nullptr, elastic(), 0.0);
  ASSERT_EQ(idle.size(), 1u);
  EXPECT_EQ(idle[0].kind, Kind::kFail);
  EXPECT_EQ(idle[0].error.code(), StatusCode::kUnavailable);

  // With slots out on leases a wider offer may still come: wait.
  const auto busy = admit_pass({queued(1, sub)}, view_of({2, 2}, 4), nullptr, elastic(), 0.0);
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_EQ(busy[0].kind, Kind::kWait);
}

TEST(AdmitPassTest, BackoffHeadIsOvertakenButOtherwiseStrictFifo) {
  const JobSubmission backing_off = small_job("backing-off");
  const JobSubmission fits = small_job("fits");
  const JobSubmission blocked = oversized_job();
  const JobSubmission behind = small_job("behind");
  std::vector<QueuedJob> queue{queued(1, backing_off), queued(2, fits), queued(3, blocked),
                               queued(4, behind)};
  queue[0].earliest_admit = 5.0;  // retry backoff until t = 5

  const auto decisions = admit_pass(queue, view_of({4, 4}, 0), nullptr, elastic(), 1.0);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].id, 2u);
  EXPECT_EQ(decisions[0].kind, Kind::kRun);
  // The first run's demand is deducted, so the blocked head is no
  // longer at the maximal offer: it waits, and the job behind it (which
  // would fit) is not planned at all.
  EXPECT_EQ(decisions[1].id, 3u);
  EXPECT_EQ(decisions[1].kind, Kind::kWait);

  // Once the gate passes, the retried job is the head again.
  const auto later = admit_pass(queue, view_of({4, 4}, 0), nullptr, elastic(), 6.0);
  ASSERT_FALSE(later.empty());
  EXPECT_EQ(later[0].id, 1u);
}

}  // namespace
}  // namespace ditto::service
