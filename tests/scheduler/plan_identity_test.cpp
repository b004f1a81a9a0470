// Plan identity: DittoScheduler's plans, bit for bit. Each case hashes
// a plan's DoPs, task placement, zero-copy edges, the bits of its
// launch times and predicted JCT/cost, and every grouping attempt of
// the joint search (record_trace on). The goldens were computed with
// the optimizer as it stood before its search moved onto per-schedule
// tables; any change to the search's floating-point order or tie
// breaks shows here as a hash mismatch naming the case.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scheduler/ditto_scheduler.h"
#include "service/engine_jobs.h"
#include "sim/job_simulator.h"
#include "sim/sim_runner.h"
#include "storage/sim_store.h"
#include "timemodel/profiler.h"
#include "workload/engine_queries.h"
#include "workload/micro.h"
#include "workload/queries.h"

namespace ditto::scheduler {
namespace {

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const char* s) {
    u64(std::strlen(s));
    bytes(s, std::strlen(s));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Hash of one schedule() call, or of its failure status.
std::uint64_t plan_hash(const JobDag& dag, const cluster::Cluster& cluster, Objective objective,
                        const storage::StorageModel& external) {
  DittoOptions options;
  options.record_trace = true;
  DittoScheduler sched(options);
  const Result<SchedulePlan> plan = sched.schedule(dag, cluster, objective, external);
  Fnv h;
  if (!plan.ok()) {
    h.str(plan.status().to_string().c_str());
    return h.value();
  }
  const cluster::PlacementPlan& p = plan->placement;
  h.u64(p.dop.size());
  for (int d : p.dop) h.u64(static_cast<std::uint64_t>(d));
  h.u64(p.task_server.size());
  for (const auto& tasks : p.task_server) {
    h.u64(tasks.size());
    for (ServerId srv : tasks) h.u64(srv);
  }
  h.u64(p.zero_copy_edges.size());
  for (const auto& [a, b] : p.zero_copy_edges) {
    h.u64(a);
    h.u64(b);
  }
  h.u64(p.launch_time.size());
  for (double t : p.launch_time) h.f64(t);
  h.f64(plan->predicted.jct);
  h.f64(plan->predicted.cost.function_gbs);
  h.f64(plan->predicted.cost.shm_gbs);
  h.f64(plan->predicted.cost.storage_gbs);
  for (double t : plan->predicted.stage_start) h.f64(t);
  for (double t : plan->predicted.stage_finish) h.f64(t);
  h.u64(sched.last_trace().size());
  for (const TraceStep& step : sched.last_trace()) {
    h.u64(step.src);
    h.u64(step.dst);
    h.u64(step.accepted);
    h.u64(step.used_shrink);
    h.f64(step.objective);
    h.str(step.variant);
  }
  return h.value();
}

workload::PhysicsParams s3_physics() {
  workload::PhysicsParams p;
  p.store = storage::s3_model();
  return p;
}

/// The paper queries as paper-sim and Table 1 plan them: models fitted
/// by profiling the simulated ground truth.
JobDag fitted_query(workload::QueryId q) {
  JobDag truth = workload::build_query(q, 1000, s3_physics());
  JobDag fitted = truth;
  auto simulator = std::make_shared<sim::JobSimulator>(truth, storage::s3_model());
  Profiler profiler(fitted, sim::make_sim_stage_runner(simulator));
  EXPECT_TRUE(profiler.profile_all().ok());
  return fitted;
}

const char* objective_tag(Objective o) { return o == Objective::kJct ? "jct" : "cost"; }

/// Every case's hash, by name.
std::map<std::string, std::uint64_t> compute_hashes() {
  std::map<std::string, std::uint64_t> out;
  const storage::StorageModel s3 = storage::s3_model();
  const std::vector<cluster::SlotDistributionSpec> testbeds = {
      cluster::zipf_0_9(),         cluster::norm_1_0(),         cluster::norm_0_8(),
      cluster::zipf_0_99(),        cluster::uniform_usage(0.25), cluster::uniform_usage(0.5),
      cluster::uniform_usage(0.75), cluster::uniform_usage(1.0)};
  for (workload::QueryId q : workload::paper_queries()) {
    const JobDag dag = fitted_query(q);
    for (const cluster::SlotDistributionSpec& spec : testbeds) {
      const cluster::Cluster cl = cluster::Cluster::paper_testbed(spec);
      for (Objective o : {Objective::kJct, Objective::kCost}) {
        out[std::string(workload::query_name(q)) + "/" + spec.label() + "/" + objective_tag(o)] =
            plan_hash(dag, cl, o, s3);
      }
    }
  }

  const storage::StorageModel redis = storage::redis_model();
  workload::EngineQuerySpec spec;
  spec.fact_rows = 20000;
  spec.num_orders = 4000;
  for (const workload::EngineQuery& query : workload::engine_queries()) {
    auto job = service::make_engine_query_job(query.name, spec, redis);
    EXPECT_TRUE(job.ok()) << query.name;
    if (!job.ok()) continue;
    const cluster::Cluster cl = cluster::Cluster::uniform(4, 8);
    for (Objective o : {Objective::kJct, Objective::kCost}) {
      out[std::string("engine-") + query.name + "/" + objective_tag(o)] =
          plan_hash(job->submission.model_dag, cl, o, redis);
    }
  }

  const workload::PhysicsParams physics = s3_physics();
  const std::vector<std::pair<std::string, JobDag>> micro = {
      {"fig1", workload::fig1_join_dag(physics)},
      {"fig4", workload::fig4_intra_path_dag(physics)},
      {"fig5", workload::fig5_inter_path_dag(physics)},
      {"fig6", workload::fig6_grouping_dag(physics)},
      {"chain40", workload::chain_dag(40, 40'000'000'000, 0.9, physics)},
      {"fanin24", workload::fan_in_dag(24, 2'000'000'000, physics)},
  };
  for (const auto& [name, dag] : micro) {
    for (const cluster::SlotDistributionSpec& bed :
         {cluster::zipf_0_9(), cluster::uniform_usage(1.0)}) {
      const cluster::Cluster cl = cluster::Cluster::paper_testbed(bed);
      for (Objective o : {Objective::kJct, Objective::kCost}) {
        out[name + "/" + bed.label() + "/" + objective_tag(o)] = plan_hash(dag, cl, o, s3);
      }
    }
  }
  return out;
}

// clang-format off
const std::map<std::string, std::uint64_t> kGolden = {
    {"Q1/100%/cost", 0x60f8f68ef5877676ULL},
    {"Q1/100%/jct", 0xcda8fdb5f30a8362ULL},
    {"Q1/25%/cost", 0x2e39c8f1ee1a8e3eULL},
    {"Q1/25%/jct", 0xd599ea4a815e0d5aULL},
    {"Q1/50%/cost", 0xfb6694b2037d5809ULL},
    {"Q1/50%/jct", 0x485a1eb66e8e94acULL},
    {"Q1/75%/cost", 0x8933cb0f7732ea28ULL},
    {"Q1/75%/jct", 0x4822c9dbe72b9a2fULL},
    {"Q1/Norm-0.8/cost", 0x3a72761df758425bULL},
    {"Q1/Norm-0.8/jct", 0xdb1d2e4aa0f2b205ULL},
    {"Q1/Norm-1.0/cost", 0xcfae43f57fae25a1ULL},
    {"Q1/Norm-1.0/jct", 0xff2ae8800a36bde6ULL},
    {"Q1/Zipf-0.9/cost", 0x2a128301b697de03ULL},
    {"Q1/Zipf-0.9/jct", 0xcc8b72c0e4dc8d1aULL},
    {"Q1/Zipf-0.99/cost", 0x7f14be4f73879f9cULL},
    {"Q1/Zipf-0.99/jct", 0xb6028bdca889301cULL},
    {"Q16/100%/cost", 0x5ef6979d4fc473ecULL},
    {"Q16/100%/jct", 0x2ea527e3416998fcULL},
    {"Q16/25%/cost", 0x4c56466d638eef16ULL},
    {"Q16/25%/jct", 0xafaf74d6fd2a6af1ULL},
    {"Q16/50%/cost", 0x47f5b8b47a65a052ULL},
    {"Q16/50%/jct", 0x1482b2c88ea5a69eULL},
    {"Q16/75%/cost", 0xcd6b2b89d7f3dc42ULL},
    {"Q16/75%/jct", 0x500656f445bb95bfULL},
    {"Q16/Norm-0.8/cost", 0xe698e41e2552f1e7ULL},
    {"Q16/Norm-0.8/jct", 0x231659768d8a04dULL},
    {"Q16/Norm-1.0/cost", 0x9ebedde9f6e6cd22ULL},
    {"Q16/Norm-1.0/jct", 0x4e3910fbe6ba6405ULL},
    {"Q16/Zipf-0.9/cost", 0x3c875723a1fabf5ULL},
    {"Q16/Zipf-0.9/jct", 0x2fd72832bfaa82f2ULL},
    {"Q16/Zipf-0.99/cost", 0xcef5d1393d084e12ULL},
    {"Q16/Zipf-0.99/jct", 0xfbdf754bacf34d74ULL},
    {"Q94/100%/cost", 0xd76e5fd1c1c7fce3ULL},
    {"Q94/100%/jct", 0xd4e89a7862236fc2ULL},
    {"Q94/25%/cost", 0xa28a3bfa488b635fULL},
    {"Q94/25%/jct", 0xb8dae4043c59bc90ULL},
    {"Q94/50%/cost", 0xf2a91542b0a2d61eULL},
    {"Q94/50%/jct", 0x4de5224b77e52f4fULL},
    {"Q94/75%/cost", 0x11e593c248ecda67ULL},
    {"Q94/75%/jct", 0xd05ac0159cafa19fULL},
    {"Q94/Norm-0.8/cost", 0x3f6ec0f1a84bbf98ULL},
    {"Q94/Norm-0.8/jct", 0x17ad98c6411c4f8cULL},
    {"Q94/Norm-1.0/cost", 0xe27dcadbf0694e97ULL},
    {"Q94/Norm-1.0/jct", 0xc5c3878ecb539598ULL},
    {"Q94/Zipf-0.9/cost", 0x7aad25718437206cULL},
    {"Q94/Zipf-0.9/jct", 0x932b3db239a31f02ULL},
    {"Q94/Zipf-0.99/cost", 0xb69044c5e1255967ULL},
    {"Q94/Zipf-0.99/jct", 0x2529c272305b3b1bULL},
    {"Q95/100%/cost", 0xbf1ef570a2fa700aULL},
    {"Q95/100%/jct", 0x6e6165148569a1c9ULL},
    {"Q95/25%/cost", 0xb9af265f14c0833ULL},
    {"Q95/25%/jct", 0xd7146cd5061262d7ULL},
    {"Q95/50%/cost", 0xf10dacff63432b5eULL},
    {"Q95/50%/jct", 0x359a424a327b8ec9ULL},
    {"Q95/75%/cost", 0x304df38fe95f3a13ULL},
    {"Q95/75%/jct", 0xf739732658a8ca29ULL},
    {"Q95/Norm-0.8/cost", 0x65e5a75c9710a418ULL},
    {"Q95/Norm-0.8/jct", 0x3ee3dfb9f15e183cULL},
    {"Q95/Norm-1.0/cost", 0x119505b4ba1b7980ULL},
    {"Q95/Norm-1.0/jct", 0x22ae3cdeeea062b7ULL},
    {"Q95/Zipf-0.9/cost", 0x2d8d301dc0026dc9ULL},
    {"Q95/Zipf-0.9/jct", 0x83ff89420d587db2ULL},
    {"Q95/Zipf-0.99/cost", 0xc286f657cefa9143ULL},
    {"Q95/Zipf-0.99/jct", 0xbf1ba9ba94bb8f9aULL},
    {"chain40/100%/cost", 0x6f79e5458b9f1e6bULL},
    {"chain40/100%/jct", 0x83325eb876f96624ULL},
    {"chain40/Zipf-0.9/cost", 0x88d980a485c19d4cULL},
    {"chain40/Zipf-0.9/jct", 0xe84248024de95be4ULL},
    {"engine-q1/cost", 0x8f2133c65003c169ULL},
    {"engine-q1/jct", 0x61c6fdc704bcce84ULL},
    {"engine-q16/cost", 0x6c9461ba1e04c21aULL},
    {"engine-q16/jct", 0x41554bbfdd5f2949ULL},
    {"engine-q94/cost", 0xc482c48983ff8749ULL},
    {"engine-q94/jct", 0xd13362e87cfa4e04ULL},
    {"engine-q95/cost", 0xd2a9221b83254ce1ULL},
    {"engine-q95/jct", 0xcde95efe921eeb82ULL},
    {"fanin24/100%/cost", 0xc56d23b25cf9cf18ULL},
    {"fanin24/100%/jct", 0x99841b6141f4e17aULL},
    {"fanin24/Zipf-0.9/cost", 0x63cef4f908ea9a6aULL},
    {"fanin24/Zipf-0.9/jct", 0x1ac524f2f2b2c7cULL},
    {"fig1/100%/cost", 0x3160c10dee5898e1ULL},
    {"fig1/100%/jct", 0x188c8dec985e59deULL},
    {"fig1/Zipf-0.9/cost", 0x6a732bc86dff59f4ULL},
    {"fig1/Zipf-0.9/jct", 0x83e949ba180ef4e6ULL},
    {"fig4/100%/cost", 0xe989cc9d97d22ebcULL},
    {"fig4/100%/jct", 0xbc40d0ec5cbfdff4ULL},
    {"fig4/Zipf-0.9/cost", 0xe989cc9d97d22ebcULL},
    {"fig4/Zipf-0.9/jct", 0x21ecdf973e21531ULL},
    {"fig5/100%/cost", 0x664ff8cc091d8e0ULL},
    {"fig5/100%/jct", 0x337d6c7c7572c2e9ULL},
    {"fig5/Zipf-0.9/cost", 0x29fd07b69305293bULL},
    {"fig5/Zipf-0.9/jct", 0x9e3de91a7e3e0a32ULL},
    {"fig6/100%/cost", 0x1e3e20f924dc20dbULL},
    {"fig6/100%/jct", 0x6372586f26a1b56dULL},
    {"fig6/Zipf-0.9/cost", 0x501d1c539d496a9ULL},
    {"fig6/Zipf-0.9/jct", 0x84ca5fa43d5277ccULL},
};
// clang-format on

TEST(PlanIdentityTest, PlansMatchGoldenHashes) {
  const std::map<std::string, std::uint64_t> hashes = compute_hashes();
  EXPECT_EQ(hashes.size(), kGolden.size());
  for (const auto& [name, hash] : hashes) {
    const auto it = kGolden.find(name);
    const std::uint64_t golden = it == kGolden.end() ? 0 : it->second;
    EXPECT_EQ(hash, golden) << "plan changed: {\"" << name << "\", 0x" << std::hex << hash
                            << "ULL},";
  }
}

}  // namespace
}  // namespace ditto::scheduler
