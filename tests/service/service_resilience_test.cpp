// Service-tier resilience: bounded-queue overload protection (SLO
// tiers, batch shed first), whole-job retry under a fresh exchange
// epoch, deadline-infeasibility rejection, and the in-process crash
// recovery loop — journal replay re-runs the interrupted job and
// converges to byte-identical sink answers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/datagen.h"
#include "exec/operators.h"
#include "service/job_service.h"
#include "service/journal.h"
#include "storage/sim_store.h"
#include "workload/physics.h"

namespace ditto::service {
namespace {

/// Same shape as the job_service_test helper: a two-stage scan -> agg
/// job with a controllable scan-side sleep. `fail_budget` (optional)
/// makes scan tasks fail UNAVAILABLE while the shared budget lasts —
/// the transient-outage shape whole-job retry exists for.
JobSubmission make_job(const std::string& name, double sleep_seconds, Bytes volume = 256_MB,
                       std::shared_ptr<std::atomic<int>> fail_budget = nullptr) {
  JobDag dag(name);
  const StageId scan = dag.add_stage("scan");
  const StageId agg = dag.add_stage("agg");
  EXPECT_TRUE(dag.add_edge(scan, agg, ExchangeKind::kShuffle).is_ok());

  auto fact = std::make_shared<const exec::Table>(
      exec::gen_fact_table({.rows = 1000, .num_warehouses = 6, .seed = 11}));

  JobSubmission sub;
  sub.label = name;
  sub.dag = dag;
  sub.bindings[scan] = exec::StageBinding{
      [fact, sleep_seconds, fail_budget](int task, int dop, const std::vector<exec::Table>&)
          -> Result<exec::Table> {
        if (fail_budget != nullptr && fail_budget->fetch_sub(1) > 0) {
          return Status::unavailable("injected scan outage");
        }
        if (sleep_seconds > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
        }
        return exec::range_slice(fact, task, dop);
      },
      "warehouse_id"};
  sub.bindings[agg] = exec::StageBinding{
      [](int, int, const std::vector<exec::Table>& inputs) -> Result<exec::Table> {
        return exec::group_by(inputs.at(0), "warehouse_id",
                              {{exec::AggKind::kSum, "quantity", "qty"}});
      },
      ""};
  sub.keepalive = fact;

  JobDag model = dag;
  model.stage(scan).set_input_bytes(volume);
  model.stage(scan).set_output_bytes(volume);
  model.stage(agg).set_input_bytes(volume);
  model.stage(agg).set_output_bytes(volume / 8);
  model.edge_between(scan, agg).bytes = volume;
  workload::PhysicsParams physics;
  physics.store = storage::redis_model();
  workload::apply_physics(model, physics);
  sub.model_dag = std::move(model);
  return sub;
}

void wait_until_running(JobService& svc) {
  while (svc.free_slots() == svc.total_slots()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServiceResilienceTest, BoundedQueueShedsBatchKeepsLatency) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  ServiceOptions options;
  options.admission.policy = AdmissionPolicy::kFifoExclusive;
  options.external = storage::redis_model();
  options.max_queue_depth = 2;
  JobService svc(cl, *store, options);

  // Occupy the service so later submissions queue behind it.
  const auto blocker = svc.submit(make_job("blocker", 0.4));
  ASSERT_TRUE(blocker.ok());
  wait_until_running(svc);

  auto b1 = make_job("batch-1", 0.0);
  auto b2 = make_job("batch-2", 0.0);
  const auto id_b1 = svc.submit(std::move(b1));
  const auto id_b2 = svc.submit(std::move(b2));
  ASSERT_TRUE(id_b1.ok());
  ASSERT_TRUE(id_b2.ok());

  // Queue full: a batch arrival is fast-rejected, cheaply and loudly.
  auto b3 = make_job("batch-3", 0.0);
  const auto id_b3 = svc.submit(std::move(b3));
  ASSERT_FALSE(id_b3.ok());
  EXPECT_EQ(id_b3.status().code(), StatusCode::kResourceExhausted);

  // A latency arrival at the same full queue is accepted: the NEWEST
  // queued batch job absorbs the overload instead.
  auto lat = make_job("latency-1", 0.0);
  lat.tier = "latency";
  const auto id_lat = svc.submit(std::move(lat));
  ASSERT_TRUE(id_lat.ok()) << id_lat.status().to_string();

  const auto outcomes = svc.drain();
  ASSERT_EQ(outcomes.size(), 4u);  // blocker, b1, b2, latency
  double latency_started = -1.0, b1_started = -1.0;
  for (const auto& o : outcomes) {
    if (o.label == "batch-2") {
      EXPECT_EQ(o.state, JobState::kFailed);
      EXPECT_EQ(o.error.code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(o.tier, "batch");
    } else {
      EXPECT_EQ(o.state, JobState::kDone) << o.label << ": " << o.error.to_string();
    }
    if (o.label == "latency-1") latency_started = o.started;
    if (o.label == "batch-1") b1_started = o.started;
  }
  // Tier priority: the latency job overtook the earlier-queued batch job.
  ASSERT_GE(latency_started, 0.0);
  ASSERT_GE(b1_started, 0.0);
  EXPECT_LT(latency_started, b1_started);
}

TEST(ServiceResilienceTest, SubmitValidatesTierAndAttempts) {
  auto cl = cluster::Cluster::uniform(1, 2);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store);
  auto bad_tier = make_job("bad-tier", 0.0);
  bad_tier.tier = "gold";
  EXPECT_EQ(svc.submit(std::move(bad_tier)).status().code(), StatusCode::kInvalidArgument);
  auto bad_attempts = make_job("bad-attempts", 0.0);
  bad_attempts.job_attempts = 0;
  EXPECT_EQ(svc.submit(std::move(bad_attempts)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceResilienceTest, JobRetryRerunsUnderFreshEpoch) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  ServiceOptions options;
  options.admission.policy = AdmissionPolicy::kFifoExclusive;
  options.external = storage::redis_model();
  JobService svc(cl, *store, options);

  // One scan task fails UNAVAILABLE; task-level retry is disabled, so
  // the first engine run fails and only the job-level retry (fresh
  // admission, fresh epoch) can complete the job.
  auto budget = std::make_shared<std::atomic<int>>(1);
  auto sub = make_job("retry-me", 0.0, 256_MB, budget);
  sub.resilience.max_task_attempts = 1;
  sub.job_attempts = 3;
  sub.job_backoff.initial_backoff = 1e-3;
  sub.job_backoff.max_backoff = 5e-3;
  const auto id = svc.submit(std::move(sub));
  ASSERT_TRUE(id.ok());
  const auto outcome = svc.wait(*id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
  EXPECT_EQ(outcome->attempts, 2);
  EXPECT_EQ(outcome->epoch, 1);  // the rerun never touched epoch 0's keys
  EXPECT_EQ(svc.free_slots(), svc.total_slots());
}

TEST(ServiceResilienceTest, ExhaustedJobRetryBudgetFails) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  ServiceOptions options;
  options.external = storage::redis_model();
  JobService svc(cl, *store, options);

  auto budget = std::make_shared<std::atomic<int>>(1000);  // never recovers
  auto sub = make_job("doomed", 0.0, 256_MB, budget);
  sub.resilience.max_task_attempts = 1;
  sub.job_attempts = 2;
  sub.job_backoff.initial_backoff = 1e-3;
  sub.job_backoff.max_backoff = 5e-3;
  const auto id = svc.submit(std::move(sub));
  ASSERT_TRUE(id.ok());
  const auto outcome = svc.wait(*id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kFailed);
  EXPECT_EQ(outcome->error.code(), StatusCode::kUnavailable);
  EXPECT_EQ(outcome->attempts, 2);
  EXPECT_EQ(svc.free_slots(), svc.total_slots());
}

TEST(ServiceResilienceTest, DrainLeavesNoExchangeObjects) {
  // Done, failed after its scan published, retried across two epochs,
  // and cancelled mid-run: by the time drain() returns, the service has
  // deleted every run attempt's exchange objects.
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  ServiceOptions options;
  options.admission.policy = AdmissionPolicy::kFifoExclusive;
  options.external = storage::redis_model();
  JobService svc(cl, *store, options);

  const auto finish = [&](JobSubmission sub, JobState want) {
    const auto id = svc.submit(std::move(sub));
    ASSERT_TRUE(id.ok());
    const auto outcome = svc.wait(*id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->state, want) << outcome->label << ": " << outcome->error.to_string();
  };
  finish(make_job("done", 0.0), JobState::kDone);

  JobSubmission failed = make_job("failed", 0.0);
  failed.bindings[1].fn = [](int, int, const std::vector<exec::Table>&) -> Result<exec::Table> {
    return Status::internal("injected agg failure");
  };
  finish(std::move(failed), JobState::kFailed);

  JobSubmission retried = make_job("retried", 0.0, 256_MB, std::make_shared<std::atomic<int>>(1));
  retried.resilience.max_task_attempts = 1;
  retried.job_attempts = 2;
  retried.job_backoff.initial_backoff = 1e-3;
  retried.job_backoff.max_backoff = 1e-3;
  finish(std::move(retried), JobState::kDone);

  const auto cancelled = svc.submit(make_job("cancelled", 0.2));
  ASSERT_TRUE(cancelled.ok());
  wait_until_running(svc);
  ASSERT_TRUE(svc.cancel(*cancelled).is_ok());

  svc.drain();
  EXPECT_GT(store->stats().puts, 0u);  // exchange objects were written
  EXPECT_EQ(store->list("job-"), std::vector<std::string>{});
}

TEST(ServiceResilienceTest, RejectsDeadlineInfeasiblePlans) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  ServiceOptions options;
  options.admission.policy = AdmissionPolicy::kFifoExclusive;
  options.external = storage::redis_model();
  options.reject_infeasible = true;
  JobService svc(cl, *store, options);

  // 4 GB through paper-scale physics predicts a JCT of seconds; a 50 ms
  // deadline is infeasible at admission, before any slot is leased.
  auto sub = make_job("infeasible", 0.0, 4_GB);
  sub.deadline = 0.05;
  const auto id = svc.submit(std::move(sub));
  ASSERT_TRUE(id.ok());
  const auto outcome = svc.wait(*id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kFailed);
  EXPECT_EQ(outcome->error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(outcome->error.message().find("infeasible"), std::string::npos)
      << outcome->error.message();
  EXPECT_EQ(outcome->started, 0.0);  // never ran
  EXPECT_EQ(svc.free_slots(), svc.total_slots());
}

// Regression: a deadline that expires in the admit-to-run window (the
// runner thread is spawned but has not yet taken the service lock) used
// to live-lock the dispatcher — it re-looped on the already-past
// deadline of the still-kAdmitted job without ever releasing the mutex,
// so the runner could never transition to kRunning. The job must reach
// a FAILED/DEADLINE_EXCEEDED terminal state promptly whichever side of
// the race it lands on (expired in queue, or cancelled mid-run).
TEST(ServiceResilienceTest, TinyDeadlineTerminatesWhereverItExpires) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  ServiceOptions options;
  options.admission.policy = AdmissionPolicy::kFifoExclusive;
  JobService svc(cl, *store, options);

  for (int i = 0; i < 8; ++i) {
    auto sub = make_job("doomed-" + std::to_string(i), /*sleep_seconds=*/0.2);
    sub.deadline = 1e-4;
    const auto id = svc.submit(std::move(sub));
    ASSERT_TRUE(id.ok());
    const auto outcome = svc.wait(*id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->state, JobState::kFailed);
    EXPECT_EQ(outcome->error.code(), StatusCode::kDeadlineExceeded)
        << outcome->error.message();
  }
  EXPECT_EQ(svc.free_slots(), svc.total_slots());
}

TEST(ServiceResilienceTest, CrashRerunRemovesTheDeadAttemptsExchangeObjects) {
  // A journaled job re-run at epoch 2 after two dead attempts: both
  // attempts' prefixes (`job-<jid>/` and `job-<jid>e1/`) are emptied by
  // the re-run, another job's prefix is left alone.
  auto store = storage::make_instant_store();
  JobJournal journal(*store, "journal/serve.log");
  const auto jid = journal.append_submit("job dead", "batch", 0.0);
  ASSERT_TRUE(jid.ok());
  const std::string base = "job-" + std::to_string(*jid);
  ASSERT_TRUE(store->put(base + "/dead/scan/part-0", "epoch 0 partial").is_ok());
  ASSERT_TRUE(store->put(base + "e1/dead/scan/part-1", "epoch 1 partial").is_ok());
  const std::string bystander = "job-" + std::to_string(*jid + 1) + "/other/scan/part-0";
  ASSERT_TRUE(store->put(bystander, "another job's output").is_ok());

  auto cl = cluster::Cluster::uniform(2, 4);
  ServiceOptions options;
  options.admission.policy = AdmissionPolicy::kFifoExclusive;
  options.external = storage::redis_model();
  options.journal = &journal;
  JobService svc(cl, *store, options);
  auto sub = make_job("dead", 0.0);
  sub.spec_line = "job dead";
  sub.jid = *jid;
  sub.epoch = 2;
  const auto id = svc.submit(std::move(sub));
  ASSERT_TRUE(id.ok());
  const auto outcome = svc.wait(*id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
  EXPECT_EQ(outcome->epoch, 2);
  svc.drain();
  EXPECT_EQ(store->list(base + "/"), std::vector<std::string>{});
  EXPECT_EQ(store->list(base + "e1/"), std::vector<std::string>{});
  EXPECT_EQ(store->list(base + "e2/"), std::vector<std::string>{});
  EXPECT_TRUE(store->get(bystander).ok());
}

// The crash-recovery loop in-process: two jobs complete and journal
// FINISH; a third is journaled SUBMIT/ADMIT/START (the crash point).
// Recovery skips the completed jobs, re-runs the interrupted one under
// a fresh epoch, and its persisted sink bytes are byte-identical to an
// uninterrupted reference run.
TEST(ServiceResilienceTest, CrashRecoveryConvergesToByteIdenticalSinks) {
  constexpr char kJournalKey[] = "journal/serve.log";
  auto store = storage::make_instant_store();

  // --- before the crash -------------------------------------------------
  {
    JobJournal journal(*store, kJournalKey);
    auto cl = cluster::Cluster::uniform(2, 4);
    ServiceOptions options;
    options.admission.policy = AdmissionPolicy::kFifoExclusive;
    options.external = storage::redis_model();
    options.journal = &journal;
    options.persist_sinks = true;
    JobService svc(cl, *store, options);
    for (const std::string name : {"a", "b"}) {
      auto sub = make_job(name, 0.0);
      sub.spec_line = "job " + name;
      const auto id = svc.submit(std::move(sub));
      ASSERT_TRUE(id.ok());
      const auto outcome = svc.wait(*id);
      ASSERT_TRUE(outcome.ok());
      ASSERT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
      EXPECT_NE(outcome->jid, 0u);
    }
    // Job c: journaled through START, then the process "dies". Its
    // epoch-0 exchange keys may hold partial garbage.
    const auto jid_c = journal.append_submit("job c", "batch", 0.0);
    ASSERT_TRUE(jid_c.ok());
    ASSERT_TRUE(journal.append_admit(*jid_c).is_ok());
    ASSERT_TRUE(journal.append_start(*jid_c, 0).is_ok());
    ASSERT_TRUE(store->put("job-" + std::to_string(*jid_c) + "/c/scan/torn-partial",
                           "garbage from the dead attempt")
                    .is_ok());
  }

  // --- restart: replay and recover -------------------------------------
  const auto replayed = JobJournal::replay(*store, kJournalKey);
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  const auto plan = build_recovery(*replayed);
  ASSERT_EQ(plan.jobs.size(), 3u);
  EXPECT_EQ(plan.completed, 2u);
  EXPECT_EQ(plan.to_rerun, 1u);
  const RecoveredJob& c = plan.jobs.back();
  ASSERT_EQ(c.disposition, RecoveredJob::Disposition::kRerun);
  EXPECT_EQ(c.payload, "job c");
  EXPECT_EQ(c.next_epoch, 1);

  {
    JobJournal journal(*store, kJournalKey);
    ASSERT_TRUE(journal.open().ok());
    auto cl = cluster::Cluster::uniform(2, 4);
    ServiceOptions options;
    options.admission.policy = AdmissionPolicy::kFifoExclusive;
    options.external = storage::redis_model();
    options.journal = &journal;
    options.persist_sinks = true;
    JobService svc(cl, *store, options);
    auto sub = make_job("c", 0.0);
    sub.spec_line = c.payload;
    sub.jid = c.jid;
    sub.epoch = c.next_epoch;
    const auto id = svc.submit(std::move(sub));
    ASSERT_TRUE(id.ok());
    const auto outcome = svc.wait(*id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
    EXPECT_EQ(outcome->epoch, 1);
    EXPECT_EQ(outcome->jid, c.jid);
  }

  // Converged: every journaled job terminal exactly once.
  const auto after = JobJournal::replay(*store, kJournalKey);
  ASSERT_TRUE(after.ok());
  const auto converged = build_recovery(*after);
  EXPECT_EQ(converged.completed, 3u);
  EXPECT_EQ(converged.to_resubmit, 0u);
  EXPECT_EQ(converged.to_rerun, 0u);

  // --- the byte-identical answer ---------------------------------------
  const auto recovered_sink = store->get("sinks/c/stage-1");
  ASSERT_TRUE(recovered_sink.ok());
  auto reference_store = storage::make_instant_store();
  {
    auto cl = cluster::Cluster::uniform(2, 4);
    ServiceOptions options;
    options.admission.policy = AdmissionPolicy::kFifoExclusive;
    options.external = storage::redis_model();
    options.persist_sinks = true;
    JobService svc(cl, *reference_store, options);
    const auto id = svc.submit(make_job("c", 0.0));
    ASSERT_TRUE(id.ok());
    const auto outcome = svc.wait(*id);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->state, JobState::kDone);
  }
  const auto reference_sink = reference_store->get("sinks/c/stage-1");
  ASSERT_TRUE(reference_sink.ok());
  EXPECT_EQ(*recovered_sink, *reference_sink)
      << "recovered sink bytes diverge from the uninterrupted run";
}

}  // namespace
}  // namespace ditto::service
