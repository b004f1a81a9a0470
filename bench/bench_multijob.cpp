// Extension experiment (the paper's §4.5 future work): inter-job
// behaviour on a shared cluster.
//
// Part 1 (simulator scale): four Q95-class queries arrive 5 s apart
// on the Zipf-0.9 testbed; each job is planned by the intra-job
// scheduler against the slots currently free and holds them for its
// lifetime (FIFO admission). Reported: per-job queueing/JCT, cluster
// makespan, and average slot utilization — with and without a
// fair-share cap on the per-job slot offer.
//
// Part 2 (live service): the four executable TPC-DS miniatures run
// through the real JobService under each inter-job admission policy
// (fifo-exclusive vs fair-share vs elastic), on real threads against
// the real MiniEngine. Reported per policy: mean/max queueing delay,
// makespan, and average slot utilization — the live counterpart of the
// simulator comparison, and the experiment behind the claim that
// elastic admission (inter-job policy co-designed with intra-job DoP
// elasticity) beats the batch baseline. Each policy runs three times,
// alternating with the others, and the verdict compares the medians: a
// single run is a coin flip on a small host, where a running job can
// starve the submitting thread until the jobs arrive one by one and no
// policy has anything to overlap.
//
// Part 3 (overload protection): a 2x overload burst — twice as many
// jobs as the bounded admission queue plus the running slot can hold —
// split between the latency and batch SLO tiers. The service must shed
// ONLY batch-tier jobs and keep latency-tier p99 queueing bounded by
// the queue depth times the slowest single-job service time.
// Regression exit code if either property fails.
#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "bench_common.h"
#include "service/engine_jobs.h"
#include "service/job_service.h"
#include "sim/job_queue.h"

using namespace ditto;
using namespace ditto::bench;

namespace {

std::vector<sim::JobSubmission> make_workload() {
  std::vector<sim::JobSubmission> subs;
  int i = 0;
  for (workload::QueryId q : {workload::QueryId::kQ95, workload::QueryId::kQ94,
                              workload::QueryId::kQ95, workload::QueryId::kQ16}) {
    sim::JobSubmission s;
    s.dag = workload::build_query(q, 1000, physics_for(storage::s3_model()));
    s.arrival = 5.0 * i;
    s.label = std::string(workload::query_name(q)) + "#" + std::to_string(i);
    subs.push_back(std::move(s));
    ++i;
  }
  return subs;
}

void report(const char* title, const sim::QueueResult& r) {
  std::printf("\n%s\n", title);
  std::printf("  %-8s %9s %9s %9s %7s\n", "job", "arrival", "queued", "JCT", "slots");
  for (const auto& j : r.jobs) {
    std::printf("  %-8s %8.1fs %8.1fs %8.1fs %7d\n", j.label.c_str(), j.arrival,
                j.queueing(), j.jct(), j.slots_used);
  }
  std::printf("  makespan %.1f s, avg utilization %.0f%%\n", r.makespan,
              r.avg_utilization * 100.0);
}

/// One live-service run: the four paper queries, all built first, then
/// submitted back-to-back through a fresh JobService under `policy`. Cost objective keeps
/// per-job DoP lean so co-residency is possible; fifo-exclusive
/// serializes regardless. The backing store applies scaled real
/// latency, so jobs spend wall-clock time in storage waits — the
/// serverless I/O profile where overlapping jobs genuinely shortens
/// the schedule (CPU-only work would merely timeslice).
service::ServiceSummary run_live(service::AdmissionPolicy policy) {
  const auto& external = storage::s3_model();
  workload::EngineQuerySpec spec;
  spec.fact_rows = 40000;
  spec.num_orders = 8000;
  spec.seed = 17;

  auto cl = cluster::Cluster::uniform(4, 8);
  storage::MemStore store(external, "s3");
  store.set_real_delay_scale(1.0);
  service::ServiceOptions options;
  options.admission.policy = policy;
  options.external = external;
  service::JobService svc(cl, store, options);

  // Every job is built before the first submit: building one takes
  // about as long as running one, so submitting each as it is built
  // would let it finish before the next arrives and no policy would
  // ever queue anything.
  std::vector<service::JobSubmission> jobs;
  for (const workload::EngineQuery& query : workload::engine_queries()) {
    const std::string_view q = query.name;
    auto job = service::make_engine_query_job(q, spec, external);
    if (!job.ok()) {
      std::fprintf(stderr, "job build failed: %s\n", job.status().to_string().c_str());
      std::exit(1);
    }
    job->submission.label = std::string(q);
    job->submission.objective = Objective::kCost;
    jobs.push_back(std::move(job->submission));
  }
  for (service::JobSubmission& sub : jobs) {
    const auto id = svc.submit(std::move(sub));
    if (!id.ok()) {
      std::fprintf(stderr, "submit failed: %s\n", id.status().to_string().c_str());
      std::exit(1);
    }
  }
  for (const auto& outcome : svc.drain()) {
    if (outcome.state != service::JobState::kDone) {
      std::fprintf(stderr, "%s did not finish: %s\n", outcome.label.c_str(),
                   outcome.error.to_string().c_str());
      std::exit(1);
    }
  }
  return svc.summary();
}

/// Part 3: 2x overload burst against a bounded queue, latency vs batch
/// tiers. Returns false on regression (latency shed, no batch shed, or
/// unbounded latency queueing).
bool run_overload() {
  const auto& external = storage::s3_model();
  workload::EngineQuerySpec spec;
  spec.fact_rows = 20000;
  spec.num_orders = 4000;
  spec.seed = 29;

  constexpr std::size_t kQueueDepth = 4;
  // Capacity of the instantaneous burst = 1 running + kQueueDepth
  // queued; submit twice that.
  constexpr std::size_t kJobs = 2 * (kQueueDepth + 1) + 6;

  auto cl = cluster::Cluster::uniform(4, 8);
  storage::MemStore store(external, "s3");
  store.set_real_delay_scale(1.0);
  service::ServiceOptions options;
  options.admission.policy = service::AdmissionPolicy::kFifoExclusive;
  options.external = external;
  options.max_queue_depth = kQueueDepth;
  service::JobService svc(cl, store, options);

  const std::vector<workload::EngineQuery>& queries = workload::engine_queries();
  std::map<std::string, std::size_t> rejected;  // tier -> fast-rejects
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const char* query = queries[i % queries.size()].name;
    auto job = service::make_engine_query_job(query, spec, external);
    if (!job.ok()) {
      std::fprintf(stderr, "job build failed: %s\n", job.status().to_string().c_str());
      return false;
    }
    // Batch first in every pair, so the queue holds batch work for
    // latency arrivals to displace.
    job->submission.tier = i % 2 == 1 ? "latency" : "batch";
    job->submission.label =
        std::string(query) + "-" + job->submission.tier + std::to_string(i);
    job->submission.objective = Objective::kCost;
    const auto id = svc.submit(job->submission);
    if (!id.ok()) {
      ++rejected[job->submission.tier];
    } else {
      ++accepted;
    }
  }

  struct TierStats {
    std::size_t done = 0, shed = 0, failed = 0;
    std::vector<double> queueing;
  };
  std::map<std::string, TierStats> tiers;
  double max_service_time = 0.0;
  for (const auto& outcome : svc.drain()) {
    TierStats& ts = tiers[outcome.tier];
    if (outcome.state == service::JobState::kDone) {
      ++ts.done;
      ts.queueing.push_back(outcome.queueing());
      max_service_time = std::max(max_service_time, outcome.finished - outcome.started);
    } else if (outcome.error.code() == StatusCode::kResourceExhausted) {
      ++ts.shed;
    } else {
      ++ts.failed;
    }
  }

  const auto p99 = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t idx =
        std::min(v.size() - 1, static_cast<std::size_t>(std::ceil(0.99 * v.size())) - 1);
    return v[idx];
  };

  std::printf("  burst: %zu jobs (queue depth %zu), %zu accepted\n", kJobs, kQueueDepth,
              accepted);
  std::printf("  %-8s %6s %6s %9s %9s %14s\n", "tier", "done", "shed", "rejected", "failed",
              "p99_queue(s)");
  for (const auto& [tier, ts] : tiers) {
    std::printf("  %-8s %6zu %6zu %9zu %9zu %14.3f\n", tier.c_str(), ts.done, ts.shed,
                rejected[tier], ts.failed, p99(ts.queueing));
  }

  const TierStats& latency = tiers["latency"];
  const TierStats& batch = tiers["batch"];
  const double latency_bound = 1.5 * static_cast<double>(kQueueDepth + 1) * max_service_time;
  std::printf("  latency p99 bound: %.3f s (%.1fx slowest service time %.3f s)\n",
              latency_bound, 1.5 * (kQueueDepth + 1), max_service_time);

  bool ok = true;
  if (latency.shed != 0) {
    std::fprintf(stderr, "REGRESSION: %zu latency-tier job(s) shed\n", latency.shed);
    ok = false;
  }
  if (batch.shed == 0) {
    std::fprintf(stderr, "REGRESSION: overload did not shed any batch-tier job\n");
    ok = false;
  }
  if (latency.failed + batch.failed != 0) {
    std::fprintf(stderr, "REGRESSION: %zu job(s) failed outside shedding\n",
                 latency.failed + batch.failed);
    ok = false;
  }
  if (p99(latency.queueing) > latency_bound) {
    std::fprintf(stderr, "REGRESSION: latency-tier p99 queueing %.3f s above bound %.3f s\n",
                 p99(latency.queueing), latency_bound);
    ok = false;
  }
  return ok;
}

}  // namespace

int main() {
  auto cl = cluster::Cluster::paper_testbed(cluster::zipf_0_9());
  print_header("Extension: multi-job cluster (4 queries, 5 s apart, Zipf-0.9)");

  for (const char* mode : {"uncapped", "fair-share (96 slots/job)"}) {
    sim::JobQueueOptions options;
    if (mode[0] == 'f') options.max_slots_per_job = 96;

    scheduler::DittoScheduler ditto_sched;
    scheduler::NimbleScheduler nimble;
    const auto rd =
        sim::run_job_queue(cl, make_workload(), ditto_sched, storage::s3_model(), options);
    const auto rn =
        sim::run_job_queue(cl, make_workload(), nimble, storage::s3_model(), options);
    if (!rd.ok() || !rn.ok()) {
      std::fprintf(stderr, "queue simulation failed\n");
      return 1;
    }
    std::printf("\n--- %s admission ---", mode);
    report("Ditto intra-job scheduling:", *rd);
    report("NIMBLE intra-job scheduling:", *rn);
    std::printf("  => Ditto shrinks makespan %.2fx under %s admission\n",
                rn->makespan / rd->makespan, mode);
  }

  print_header("Live service: inter-job policy on the real engine (4x8 slots, 4 queries)");
  std::printf("  %-15s %10s %10s %10s %6s\n", "policy", "mean_q(s)", "max_q(s)",
              "makespan", "util");
  constexpr int kLiveRounds = 3;
  std::vector<service::AdmissionPolicy> policies = {service::AdmissionPolicy::kFifoExclusive,
                                                    service::AdmissionPolicy::kFairShare,
                                                    service::AdmissionPolicy::kElastic};
  std::map<service::AdmissionPolicy, std::vector<double>> makespans, queueings;
  for (int round = 0; round < kLiveRounds; ++round) {
    for (const auto policy : policies) {
      const auto s = run_live(policy);
      std::printf("  %-15s %10.3f %10.3f %10.3f %5.0f%%\n",
                  service::admission_policy_name(policy), s.mean_queueing, s.max_queueing,
                  s.makespan, s.avg_utilization * 100.0);
      makespans[policy].push_back(s.makespan);
      queueings[policy].push_back(s.mean_queueing);
    }
    std::reverse(policies.begin(), policies.end());  // alternate the order
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double fifo_makespan = median(makespans[service::AdmissionPolicy::kFifoExclusive]);
  const double elastic_makespan = median(makespans[service::AdmissionPolicy::kElastic]);
  const double fifo_queueing = median(queueings[service::AdmissionPolicy::kFifoExclusive]);
  const double elastic_queueing = median(queueings[service::AdmissionPolicy::kElastic]);
  std::printf(
      "  => elastic admission vs fifo-exclusive (medians of %d runs): makespan %.2fx, mean "
      "queueing %.2fx\n",
      kLiveRounds, fifo_makespan / elastic_makespan,
      elastic_queueing > 0 ? fifo_queueing / elastic_queueing : 0.0);
  if (elastic_makespan >= fifo_makespan || elastic_queueing >= fifo_queueing) {
    std::fprintf(stderr, "REGRESSION: elastic did not beat fifo-exclusive\n");
    return 1;
  }

  print_header("Overload protection: 2x burst, latency vs batch tiers (bounded queue)");
  if (!run_overload()) return 1;
  return 0;
}
