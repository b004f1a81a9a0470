// JobService lifecycle: admission, concurrent execution, cancellation,
// deadlines, guarded resource reclamation.
#include "service/job_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "exec/datagen.h"
#include "exec/operators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scheduler/ditto_scheduler.h"
#include "storage/sim_store.h"
#include "workload/micro.h"
#include "workload/physics.h"
#include "workload/pipelining.h"

namespace ditto::service {
namespace {

/// A two-stage scan -> group-by job whose scan tasks sleep, so tests
/// can control how long the job occupies its slots.
JobSubmission make_sleep_job(const std::string& name, double sleep_seconds,
                             Bytes volume = 256_MB) {
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
      [fact, sleep_seconds](int task, int dop, const std::vector<exec::Table>&)
          -> Result<exec::Table> {
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

std::size_t process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

ServiceOptions options_with(AdmissionPolicy policy) {
  ServiceOptions opt;
  opt.admission.policy = policy;
  opt.external = storage::redis_model();
  return opt;
}

TEST(JobServiceTest, RunsSingleJobToCompletion) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, options_with(AdmissionPolicy::kElastic));

  const auto id = svc.submit(make_sleep_job("single", 0.0));
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const auto outcome = svc.wait(*id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kDone);
  EXPECT_TRUE(outcome->error.is_ok());
  EXPECT_GT(outcome->slots_granted, 0);
  EXPECT_GE(outcome->started, outcome->submitted);
  EXPECT_GE(outcome->finished, outcome->started);
  ASSERT_TRUE(outcome->sink_outputs.count(1));
  EXPECT_GT(outcome->sink_outputs.at(1).num_rows(), 0u);

  // All slots back after completion.
  EXPECT_EQ(svc.free_slots(), svc.total_slots());
}

TEST(JobServiceTest, ValidatesSubmissions) {
  auto cl = cluster::Cluster::uniform(1, 2);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store);
  EXPECT_FALSE(svc.submit(JobSubmission{}).ok());  // empty DAG
  JobSubmission mismatched = make_sleep_job("bad", 0.0);
  mismatched.model_dag = JobDag("other");
  mismatched.model_dag.add_stage("only");
  EXPECT_FALSE(svc.submit(std::move(mismatched)).ok());
}

TEST(JobServiceTest, RejectsPipeliningAnnotatedModelWithoutARecord) {
  // The shared pools run waves, so a model promising a pipelined
  // overlap would plan an execution that never happens: submit rejects
  // it before any id, queue entry or journal record exists.
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobJournal journal(*store, "journal/serve.log");
  ServiceOptions opt = options_with(AdmissionPolicy::kElastic);
  opt.journal = &journal;
  JobService svc(cl, *store, opt);

  JobSubmission annotated = make_sleep_job("annotated", 0.0);
  annotated.spec_line = "job annotated";
  ASSERT_TRUE(workload::pipeline_edge(annotated.model_dag, 0, 1));
  const auto rejected = svc.submit(std::move(annotated));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(svc.jobs_snapshot().empty());
  EXPECT_EQ(svc.summary().submitted, 0u);
  EXPECT_TRUE(store->list("journal/").empty());

  // The unannotated model is accepted and takes the first id.
  const auto id = svc.submit(make_sleep_job("plain", 0.0));
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  EXPECT_EQ(*id, 1u);
  EXPECT_EQ(svc.wait(*id)->state, JobState::kDone);
}

TEST(JobServiceTest, FifoExclusiveSerializesJobs) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, options_with(AdmissionPolicy::kFifoExclusive));

  std::vector<JobId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = svc.submit(make_sleep_job("fifo-" + std::to_string(i), 0.05));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const auto outcomes = svc.drain();
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& o : outcomes) EXPECT_EQ(o.state, JobState::kDone) << o.error.to_string();
  // Exclusive admission: execution intervals never overlap, and jobs
  // start in submission order.
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_GE(outcomes[i].started, outcomes[i - 1].finished - 1e-9);
  }
}

TEST(JobServiceTest, ElasticAdmissionOverlapsJobs) {
  auto cl = cluster::Cluster::uniform(4, 8);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, options_with(AdmissionPolicy::kElastic));

  // Long-running first job under the cost objective (small DoP, so it
  // leaves slots free); the second must start before it finishes —
  // elastic admission plans it against the remaining slots.
  JobSubmission long_job = make_sleep_job("long", 0.4);
  long_job.objective = Objective::kCost;
  const auto a = svc.submit(std::move(long_job));
  const auto b = svc.submit(make_sleep_job("short", 0.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto oa = svc.wait(*a);
  const auto ob = svc.wait(*b);
  ASSERT_TRUE(oa.ok());
  ASSERT_TRUE(ob.ok());
  EXPECT_EQ(oa->state, JobState::kDone);
  EXPECT_EQ(ob->state, JobState::kDone);
  EXPECT_LT(ob->started, oa->finished);  // overlap happened
}

TEST(JobServiceTest, CancelQueuedJobNeverRuns) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, options_with(AdmissionPolicy::kFifoExclusive));

  const auto head = svc.submit(make_sleep_job("head", 0.3));
  const auto queued = svc.submit(make_sleep_job("queued", 0.0));
  ASSERT_TRUE(head.ok());
  ASSERT_TRUE(queued.ok());
  // Give the dispatcher a beat to admit the head; the second job waits
  // behind the exclusive policy.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(svc.cancel(*queued).is_ok());
  const auto outcome = svc.wait(*queued);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kCancelled);
  EXPECT_EQ(outcome->error.code(), StatusCode::kCancelled);
  EXPECT_DOUBLE_EQ(outcome->started, 0.0);  // never ran
  // Cancelling again is idempotent; the finished head is not cancellable.
  EXPECT_TRUE(svc.cancel(*queued).is_ok());
  const auto done = svc.wait(*head);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kDone);
  EXPECT_EQ(svc.cancel(*head).code(), StatusCode::kFailedPrecondition);
}

TEST(JobServiceTest, CancelRunningJobStopsTheEngine) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, options_with(AdmissionPolicy::kElastic));

  const auto id = svc.submit(make_sleep_job("doomed", 0.2));
  ASSERT_TRUE(id.ok());
  // Wait until it is actually running, then cancel.
  for (int i = 0; i < 200; ++i) {
    const auto st = svc.state(*id);
    ASSERT_TRUE(st.ok());
    if (*st == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(svc.cancel(*id).is_ok());
  const auto outcome = svc.wait(*id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kCancelled);
  EXPECT_EQ(outcome->error.code(), StatusCode::kCancelled);
  EXPECT_EQ(svc.free_slots(), svc.total_slots());  // slots reclaimed
}

TEST(JobServiceTest, QueuedDeadlineExpiresWithoutRunning) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, options_with(AdmissionPolicy::kFifoExclusive));

  const auto head = svc.submit(make_sleep_job("head", 0.4));
  JobSubmission impatient = make_sleep_job("impatient", 0.0);
  impatient.deadline = 0.05;  // expires long before the head finishes
  const auto id = svc.submit(std::move(impatient));
  ASSERT_TRUE(head.ok());
  ASSERT_TRUE(id.ok());
  const auto outcome = svc.wait(*id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kFailed);
  EXPECT_EQ(outcome->error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(outcome->started, 0.0);
  (void)svc.wait(*head);
}

TEST(JobServiceTest, RunningDeadlineCancelsTheEngine) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, options_with(AdmissionPolicy::kElastic));

  JobSubmission slow = make_sleep_job("slow", 0.3);
  slow.deadline = 0.08;
  const auto id = svc.submit(std::move(slow));
  ASSERT_TRUE(id.ok());
  const auto outcome = svc.wait(*id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kFailed);
  EXPECT_EQ(outcome->error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(outcome->started, 0.0);  // it did start
  EXPECT_EQ(svc.free_slots(), svc.total_slots());
}

TEST(JobServiceTest, ArenaChargesAreReclaimedAfterEveryJob) {
  auto cl = cluster::Cluster::uniform(2, 4);
  std::vector<Bytes> baseline;
  for (std::size_t v = 0; v < cl.num_servers(); ++v) {
    baseline.push_back(cl.server(v).arena().used());
  }
  auto store = storage::make_instant_store();
  {
    JobService svc(cl, *store, options_with(AdmissionPolicy::kElastic));
    std::vector<JobId> ids;
    for (int i = 0; i < 3; ++i) {
      auto id = svc.submit(make_sleep_job("mem-" + std::to_string(i), 0.0));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (const JobId id : ids) {
      const auto o = svc.wait(id);
      ASSERT_TRUE(o.ok());
      EXPECT_EQ(o->state, JobState::kDone) << o->error.to_string();
    }
    // High-water mark proves charges were actually taken at some point.
    Bytes high = 0;
    for (std::size_t v = 0; v < cl.num_servers(); ++v) {
      high += cl.server(v).arena().high_water();
    }
    EXPECT_GT(high, 0u);
  }
  // Regression: back-to-back jobs must not leak arena accounting.
  for (std::size_t v = 0; v < cl.num_servers(); ++v) {
    EXPECT_EQ(cl.server(v).arena().used(), baseline[v]) << "server " << v;
  }
  EXPECT_EQ(cl.free_slots(), cl.total_slots());
}

TEST(JobServiceTest, OversizedJobFailsInsteadOfBlockingTheQueue) {
  // Tiny arenas: the job's modeled memory cannot fit, and under an idle
  // cluster that verdict is final — the queue must move on.
  auto cl = cluster::Cluster::from_slots({4, 4}, /*memory_per_server=*/1_MB);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, options_with(AdmissionPolicy::kElastic));

  const auto big = svc.submit(make_sleep_job("too-big", 0.0, /*volume=*/64_GB));
  ASSERT_TRUE(big.ok());
  const auto outcome = svc.wait(*big);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kFailed);

  // The queue is not head-blocked: a normal job still completes.
  JobSubmission small = make_sleep_job("small", 0.0, /*volume=*/64_KB);
  const auto ok_id = svc.submit(std::move(small));
  ASSERT_TRUE(ok_id.ok());
  const auto ok_outcome = svc.wait(*ok_id);
  ASSERT_TRUE(ok_outcome.ok());
  EXPECT_EQ(ok_outcome->state, JobState::kDone) << ok_outcome->error.to_string();
}

TEST(JobServiceTest, DrainClosesIntakeAndReportsEveryJob) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store);
  ASSERT_TRUE(svc.submit(make_sleep_job("a", 0.05)).ok());
  ASSERT_TRUE(svc.submit(make_sleep_job("b", 0.05)).ok());
  const auto outcomes = svc.drain();
  EXPECT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) EXPECT_TRUE(is_terminal(o.state));
  // Intake is closed after drain.
  EXPECT_EQ(svc.submit(make_sleep_job("late", 0.0)).status().code(),
            StatusCode::kFailedPrecondition);
  // Drain is idempotent.
  EXPECT_EQ(svc.drain().size(), 2u);

  const ServiceSummary sum = svc.summary();
  EXPECT_EQ(sum.submitted, 2u);
  EXPECT_EQ(sum.done, 2u);
  EXPECT_GT(sum.makespan, 0.0);
  EXPECT_GT(sum.avg_utilization, 0.0);
  EXPECT_LE(sum.avg_utilization, 1.0);
  EXPECT_FALSE(sum.to_text().empty());
}

TEST(JobServiceTest, UnknownJobIdsAreNotFound) {
  auto cl = cluster::Cluster::uniform(1, 2);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store);
  EXPECT_EQ(svc.state(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(svc.wait(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(svc.cancel(42).code(), StatusCode::kNotFound);
}

TEST(JobServiceTest, EmitsPerJobMetricsAndTraceSpans) {
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  obs::TraceCollector& tc = obs::TraceCollector::global();
  mx.set_enabled(true);
  tc.set_enabled(true);
  const std::uint64_t jobs_before =
      mx.counter("service.jobs", {{"policy", "elastic"}, {"state", "DONE"}}).value();

  {
    auto cl = cluster::Cluster::uniform(2, 4);
    auto store = storage::make_instant_store();
    JobService svc(cl, *store, options_with(AdmissionPolicy::kElastic));
    const auto id = svc.submit(make_sleep_job("observed", 0.0));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(svc.wait(*id).ok());
  }

  EXPECT_EQ(
      mx.counter("service.jobs", {{"policy", "elastic"}, {"state", "DONE"}}).value(),
      jobs_before + 1);
  bool saw_job_span = false;
  for (const auto& e : tc.events()) {
    if (e.cat == "service.job" && e.name == "observed") saw_job_span = true;
  }
  EXPECT_TRUE(saw_job_span);
  mx.set_enabled(false);
  tc.set_enabled(false);
}

TEST(JobServiceTest, SubmitAndQueriesStayResponsiveWhileTheDispatcherPlans) {
  // A chain too long for 8 slots: the scheduler searches at length and
  // finds no plan, so the job fails UNAVAILABLE without running. It
  // grows until one plan takes at least 200 ms, so a tenth of it stays
  // well above a scheduling hiccup.
  auto cl = cluster::Cluster::uniform(2, 4);
  workload::PhysicsParams physics;
  physics.store = storage::redis_model();
  JobDag chain;
  double plan_s = 0.0;
  for (int stages = 256; plan_s < 0.2 && stages <= 4096; stages += 128) {
    chain = workload::chain_dag(stages, 1_GB, 0.9, physics);
    scheduler::DittoScheduler sched;
    const auto t0 = std::chrono::steady_clock::now();
    const auto plan = sched.schedule(chain, cl, Objective::kJct, storage::redis_model());
    plan_s = seconds_since(t0);
    ASSERT_FALSE(plan.ok());
  }
  ASSERT_GE(plan_s, 0.2);

  auto store = storage::make_instant_store();
  JobService svc(cl, *store, options_with(AdmissionPolicy::kElastic));
  JobSubmission slow;
  slow.label = "slow-plan";
  slow.dag = chain;
  slow.model_dag = chain;
  const auto slow_id = svc.submit(std::move(slow));
  ASSERT_TRUE(slow_id.ok());
  std::this_thread::sleep_for(std::chrono::duration<double>(plan_s / 4));  // mid-plan

  double worst = 0.0;
  int quick = 0;
  for (;;) {
    if (quick < 5) {
      JobSubmission sub = make_sleep_job("quick-" + std::to_string(quick++), 0.0);
      const auto t0 = std::chrono::steady_clock::now();
      ASSERT_TRUE(svc.submit(std::move(sub)).ok());
      worst = std::max(worst, seconds_since(t0));
    }
    auto t0 = std::chrono::steady_clock::now();
    const auto state = svc.state(*slow_id);
    worst = std::max(worst, seconds_since(t0));
    t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(svc.jobs_snapshot().empty());
    worst = std::max(worst, seconds_since(t0));
    ASSERT_TRUE(state.ok());
    if (is_terminal(*state)) break;
  }
  EXPECT_LT(worst, plan_s / 10) << "plan " << plan_s << " s";
  const auto outcome = svc.wait(*slow_id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->error.code(), StatusCode::kUnavailable);
  for (const JobOutcome& o : svc.drain()) {
    if (o.id != *slow_id) {
      EXPECT_EQ(o.state, JobState::kDone) << o.error.to_string();
    }
  }
}

TEST(JobServiceTest, BackToBackJobsStartNoThreads) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, options_with(AdmissionPolicy::kElastic));
  constexpr int kJobs = 50;
  std::vector<std::size_t> during(kJobs, 0);
  for (int i = 0; i < kJobs; ++i) {
    JobSubmission sub = make_sleep_job("flat-" + std::to_string(i), 0.0);
    auto seen = std::make_shared<std::atomic<std::size_t>>(0);
    const exec::StageFn scan = sub.bindings[0].fn;
    sub.bindings[0].fn = [scan, seen](int task, int dop, const std::vector<exec::Table>& in) {
      seen->store(process_threads());
      return scan(task, dop, in);
    };
    const auto id = svc.submit(std::move(sub));
    ASSERT_TRUE(id.ok());
    const auto outcome = svc.wait(*id);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
    during[i] = seen->load();
  }
  svc.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let exiting threads go
  // A running job adds no thread to the idle service's.
  const std::size_t idle = process_threads();
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(during[i], idle) << "job " << i;
}

}  // namespace
}  // namespace ditto::service
