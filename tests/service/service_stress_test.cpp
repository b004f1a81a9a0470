// Concurrency stress: the four paper queries run through the shared
// JobService — interleaved arrivals, multiple seeds, per-job chaos —
// and every job's sink bytes must be identical to an isolated
// single-job engine run executing the SAME placement plan. (The plan
// must be pinned for the comparison: elastic admission legitimately
// changes DoP, and DoP changes sink row order.)
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "exec/serde.h"
#include "service/engine_jobs.h"
#include "service/job_service.h"
#include "storage/sim_store.h"

namespace ditto::service {
namespace {

workload::EngineQuerySpec small_spec(std::uint64_t seed) {
  workload::EngineQuerySpec spec;
  spec.fact_rows = 8000;
  spec.num_orders = 1500;
  spec.seed = seed;
  return spec;
}

std::string table_bytes(const exec::Table& t) {
  return *exec::serialize_table(t);
}

/// Re-runs the job isolated (own engine, own store, same plan) and
/// returns its serialized sink table.
std::string isolated_sink_bytes(const EngineQueryJob& job, const JobOutcome& outcome) {
  auto store = storage::make_instant_store();
  exec::MiniEngine engine(job.submission.dag, outcome.plan, *store);
  auto result = engine.run(job.submission.bindings);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  if (!result.ok()) return {};
  return table_bytes(result->sink_outputs.at(job.sink));
}

void check_outcome(const EngineQueryJob& job, const JobOutcome& outcome) {
  ASSERT_EQ(outcome.state, JobState::kDone)
      << outcome.label << ": " << outcome.error.to_string();
  ASSERT_TRUE(outcome.sink_outputs.count(job.sink)) << outcome.label;

  // Correct answer.
  const auto answer = job.extract(outcome.sink_outputs.at(job.sink));
  ASSERT_TRUE(answer.ok()) << outcome.label;
  EXPECT_EQ(answer->rows, job.ref_rows) << outcome.label;
  EXPECT_NEAR(answer->value, job.ref_value, 1e-6) << outcome.label;

  // Byte-identical to the isolated run under the same plan.
  EXPECT_EQ(table_bytes(outcome.sink_outputs.at(job.sink)), isolated_sink_bytes(job, outcome))
      << outcome.label;
}

class ServiceStressTest : public ::testing::TestWithParam<AdmissionPolicy> {};

INSTANTIATE_TEST_SUITE_P(Policies, ServiceStressTest,
                         ::testing::Values(AdmissionPolicy::kElastic,
                                           AdmissionPolicy::kFairShare),
                         [](const auto& info) {
                           return std::string(admission_policy_name(info.param)) == "fair-share"
                                      ? "FairShare"
                                      : "Elastic";
                         });

TEST_P(ServiceStressTest, ConcurrentQueriesMatchIsolatedRuns) {
  const auto& external = storage::redis_model();
  for (const std::uint64_t seed : {11u, 22u}) {
    std::vector<EngineQueryJob> jobs;
    for (const workload::EngineQuery& query : workload::engine_queries()) {
    const std::string_view q = query.name;
      auto job = make_engine_query_job(q, small_spec(seed + q.size()), external);
      ASSERT_TRUE(job.ok()) << job.status().to_string();
      job->submission.label = std::string(q) + "-s" + std::to_string(seed);
      jobs.push_back(std::move(*job));
    }

    auto cl = cluster::Cluster::uniform(4, 8);
    auto store = storage::make_instant_store();
    ServiceOptions opt;
    opt.admission.policy = GetParam();
    opt.external = external;
    JobService svc(cl, *store, opt);

    // Interleaved arrivals: stagger submissions so admission decisions
    // happen against a moving free-slot view.
    std::vector<JobId> ids;
    for (auto& job : jobs) {
      auto id = svc.submit(job.submission);
      ASSERT_TRUE(id.ok()) << id.status().to_string();
      ids.push_back(*id);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto outcome = svc.wait(ids[i]);
      ASSERT_TRUE(outcome.ok());
      check_outcome(jobs[i], *outcome);
    }
    EXPECT_EQ(svc.free_slots(), svc.total_slots());
  }
}

TEST(ServiceChaosTest, FaultStormStillMatchesIsolatedRuns) {
  const auto& external = storage::redis_model();
  std::vector<EngineQueryJob> jobs;
  std::uint64_t fault_seed = 5;
  for (const workload::EngineQuery& query : workload::engine_queries()) {
    const std::string_view q = query.name;
    auto job = make_engine_query_job(q, small_spec(33), external);
    ASSERT_TRUE(job.ok());
    job->submission.label = std::string(q) + "-chaos";
    // Per-job storm: crashes, hangs, and storage errors, each job with
    // its own deterministic seed.
    faults::FaultSpec spec;
    spec.crash_prob = 0.2;
    spec.storage_error_prob = 0.05;
    spec.hang_prob = 0.1;
    spec.hang_seconds = 0.02;
    spec.seed = fault_seed++;
    job->submission.faults = spec;
    jobs.push_back(std::move(*job));
  }

  auto cl = cluster::Cluster::uniform(4, 8);
  auto store = storage::make_instant_store();
  ServiceOptions opt;
  opt.admission.policy = AdmissionPolicy::kElastic;
  opt.external = external;
  JobService svc(cl, *store, opt);

  std::vector<JobId> ids;
  for (auto& job : jobs) {
    auto id = svc.submit(job.submission);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::size_t resilience_events = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto outcome = svc.wait(ids[i]);
    ASSERT_TRUE(outcome.ok());
    // The faulted run through the shared service must produce the same
    // bytes as a fault-free isolated run on the same plan.
    check_outcome(jobs[i], *outcome);
    resilience_events += outcome->stats.resilience.total_events();
  }
  EXPECT_GT(resilience_events, 0u);  // the storm actually bit
}

TEST(ServiceChaosTest, ServerLossInOneJobDoesNotCorruptNeighbors) {
  const auto& external = storage::redis_model();
  auto victim = make_engine_query_job("q95", small_spec(44), external);
  auto bystander = make_engine_query_job("q16", small_spec(55), external);
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(bystander.ok());
  victim->submission.label = "victim";
  bystander->submission.label = "bystander";
  // The victim loses server 1 at its second wave; the bystander shares
  // the cluster but must be untouched.
  faults::FaultSpec loss;
  loss.server_loss = 1;
  loss.server_loss_wave = 1;
  loss.seed = 7;
  victim->submission.faults = loss;

  auto cl = cluster::Cluster::uniform(4, 8);
  auto store = storage::make_instant_store();
  ServiceOptions opt;
  opt.admission.policy = AdmissionPolicy::kElastic;
  opt.external = external;
  JobService svc(cl, *store, opt);

  const auto victim_id = svc.submit(victim->submission);
  const auto bystander_id = svc.submit(bystander->submission);
  ASSERT_TRUE(victim_id.ok());
  ASSERT_TRUE(bystander_id.ok());

  const auto victim_out = svc.wait(*victim_id);
  const auto bystander_out = svc.wait(*bystander_id);
  ASSERT_TRUE(victim_out.ok());
  ASSERT_TRUE(bystander_out.ok());
  check_outcome(*victim, *victim_out);
  check_outcome(*bystander, *bystander_out);
  EXPECT_EQ(victim_out->stats.resilience.servers_lost, 1u);
  EXPECT_EQ(bystander_out->stats.resilience.servers_lost, 0u);
}

TEST(ServiceChaosTest, DrainDuringChaosReachesQuiescence) {
  const auto& external = storage::redis_model();
  auto cl = cluster::Cluster::uniform(4, 8);
  auto store = storage::make_instant_store();
  ServiceOptions opt;
  opt.admission.policy = AdmissionPolicy::kElastic;
  opt.external = external;
  JobService svc(cl, *store, opt);

  std::vector<EngineQueryJob> jobs;
  for (int i = 0; i < 4; ++i) {
    auto job = make_engine_query_job(i % 2 == 0 ? "q1" : "q94", small_spec(60 + i), external);
    ASSERT_TRUE(job.ok());
    job->submission.label = "drain-" + std::to_string(i);
    faults::FaultSpec spec;
    spec.crash_prob = 0.3;
    spec.storage_error_prob = 0.1;
    spec.seed = 100 + i;
    job->submission.faults = spec;
    ASSERT_TRUE(svc.submit(job->submission).ok());
    jobs.push_back(std::move(*job));
  }
  // Drain immediately: intake closes while chaos-ridden jobs are still
  // queued/running. Everything must still reach a terminal state with
  // correct results.
  const auto outcomes = svc.drain();
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    check_outcome(jobs[i], outcomes[i]);
  }
  EXPECT_EQ(svc.free_slots(), svc.total_slots());
}

}  // namespace
}  // namespace ditto::service
