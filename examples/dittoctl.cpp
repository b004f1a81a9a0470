// dittoctl: schedule a user-provided job spec from the command line.
//
//   dittoctl <jobspec-file> [--cluster 8x96@zipf-0.9] [--objective jct|cost]
//            [--store s3|redis] [--trace-out FILE] [--report FILE]
//            [--metrics] [--faults SPEC] [--fault-seed N]
//
// Reads the job spec (see workload/jobspec.h for the format), derives
// ground-truth step models from the annotated data volumes, profiles,
// schedules with Ditto, simulates the plan, and prints the decision
// plus predicted/simulated JCT and cost. With no arguments it runs a
// built-in demo spec.
//
// Observability: --trace-out writes the run (scheduler spans + the
// simulated execution timeline) as Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing; --report writes a per-job execution
// report (JSON); --metrics prints the metrics snapshot to stderr.
//
// Chaos: --faults arms the seeded fault injector for the simulated run
// (see faults/fault_injector.h for the spec grammar, e.g.
// "storage_error=0.05,crash=0.02,server_loss=1@2"); --fault-seed
// overrides the spec's seed. The report gains a resilience section.
//
// Multi-tenant serving (the §4.5 co-design, live):
//
//   dittoctl serve [servespec-file] [--cluster NxS[@dist]]
//                  [--policy fifo|fair|elastic] [--fair-slots N]
//                  [--state DIR] [--recover] [--best-effort] [--breaker]
//
// Reads a serve spec (see service/serve_spec.h: one `job` line per
// tenant with arrival offset, objective, optional deadline, SLO tier
// and per-job faults), runs every job concurrently through the real
// MiniEngine under the chosen inter-job admission policy, and prints
// per-job outcome rows (queueing delay, JCT, slots, status) plus the
// service summary. With no spec file it runs a built-in 3-tenant demo.
//
// Resilience:
//   * --state DIR backs exchanges, the job journal, and completed sink
//     bytes with a FileStore rooted at DIR, so a SIGKILL'd serve can be
//     restarted with --recover: completed jobs are skipped, queued jobs
//     re-enqueued, and interrupted jobs re-run under a fresh exchange
//     epoch — recovered sinks land on the same keys, byte-identical.
//   * --breaker routes the store through a circuit breaker that fails
//     fast while the backend browns out.
//
// Recurring-job result cache: the service caches completed stage
// outputs keyed by (plan fingerprint, input signature, input_version),
// serving repeated submissions slot-free (whole-job hits), pruning
// cached upstream stages (partial hits), and deduplicating identical
// in-flight jobs. Sized via `policy ... cache_bytes=N` in the spec
// (64 MiB default; 0 disables); per-job `cache=off` opts a line out and
// `input_version=N` invalidates prior entries. With --state the cache
// persists alongside the journal, so --recover restarts warm. The
// outcome table's `src` column shows cache|dedup|prune|run per job.
//   * serve exits non-zero when any job ends FAILED or is rejected at
//     admission; --best-effort restores exit 0 (outcomes still print).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "cluster/runtime_monitor.h"
#include "exec/serde.h"
#include "faults/circuit_breaker.h"
#include "faults/fault_injector.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "scheduler/ditto_scheduler.h"
#include "scheduler/explain.h"
#include "service/engine_jobs.h"
#include "service/http_endpoint.h"
#include "service/job_service.h"
#include "service/serve_spec.h"
#include "service/journal.h"
#include "sim/sim_runner.h"
#include "sim/trace_export.h"
#include "storage/file_store.h"
#include "storage/sim_store.h"
#include "workload/jobspec.h"
#include "workload/physics.h"

using namespace ditto;

namespace {

constexpr const char* kDemoSpec = R"(# demo: two scans into a join into an aggregate
job demo
stage scan_a map input=24GB output=8GB
stage scan_b map input=6GB output=2GB
stage join join output=1GB
stage agg reduce output=10MB
edge scan_a join shuffle
edge scan_b join shuffle
edge join agg gather
)";

constexpr const char* kServeDemoSpec =
    R"(# demo tenants: three paper queries arriving 100 ms apart
policy elastic
job q1  arrival=0.0 objective=jct  rows=8000 orders=1500 seed=11 label=tenant-a
job q16 arrival=0.1 objective=cost rows=8000 orders=1500 seed=22 label=tenant-b
job q95 arrival=0.2 objective=jct  rows=8000 orders=1500 seed=33 label=tenant-c
)";

int usage() {
  std::fprintf(stderr,
               "usage: dittoctl [jobspec-file] [--cluster NxS[@dist]] "
               "[--objective jct|cost] [--store s3|redis] [--trace-out FILE] "
               "[--report FILE] [--metrics] [--faults SPEC] [--fault-seed N]\n"
               "       dittoctl serve [servespec-file] [--cluster NxS[@dist]] "
               "[--policy fifo|fair|elastic] [--fair-slots N] "
               "[--http-port N] [--linger SECS] "
               "[--state DIR] [--recover] [--best-effort] [--breaker]\n");
  return 2;
}

// `dittoctl serve`: run a multi-tenant serve spec through the live
// JobService and print per-job outcome rows plus the service summary.
int run_serve(int argc, char** argv) {
  std::string spec_text = kServeDemoSpec;
  std::string cluster_spec = "4x8";
  std::string policy_override;
  int fair_slots_override = 0;
  int http_port = -1;  ///< < 0 = no endpoint; 0 = ephemeral
  double linger = 0.0;
  std::string state_dir;
  bool recover = false;
  bool best_effort = false;
  bool use_breaker = false;

  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cluster") == 0 && i + 1 < argc) {
      cluster_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      policy_override = argv[++i];
    } else if (std::strcmp(argv[i], "--fair-slots") == 0 && i + 1 < argc) {
      fair_slots_override = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--http-port") == 0 && i + 1 < argc) {
      http_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--linger") == 0 && i + 1 < argc) {
      linger = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--state") == 0 && i + 1 < argc) {
      state_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      recover = true;
    } else if (std::strcmp(argv[i], "--best-effort") == 0) {
      best_effort = true;
    } else if (std::strcmp(argv[i], "--breaker") == 0) {
      use_breaker = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      std::ifstream f(argv[i]);
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buf;
      buf << f.rdbuf();
      spec_text = buf.str();
    }
  }

  auto spec = service::parse_serve_spec(spec_text);
  if (!spec.ok()) {
    std::fprintf(stderr, "serve spec error: %s\n", spec.status().to_string().c_str());
    return 1;
  }
  if (!policy_override.empty()) {
    auto p = service::parse_admission_policy(policy_override);
    if (!p.ok()) return usage();
    spec->admission.policy = *p;
  }
  if (fair_slots_override > 0) spec->admission.fair_share_slots = fair_slots_override;

  auto cl = workload::parse_cluster_spec(cluster_spec);
  if (!cl.ok()) {
    std::fprintf(stderr, "cluster spec error: %s\n", cl.status().to_string().c_str());
    return 1;
  }

  if (recover && state_dir.empty()) {
    std::fprintf(stderr, "--recover requires --state DIR\n");
    return usage();
  }

  // Enable metrics before anything registers gauges at construction
  // (the circuit breaker does), so a /metrics scrape sees them even
  // before the first state transition.
  if (http_port >= 0) obs::set_observability_enabled(true);

  const storage::StorageModel external = storage::redis_model();
  std::unique_ptr<storage::ObjectStore> owned_store;
  if (state_dir.empty()) {
    owned_store = storage::make_instant_store();
  } else {
    owned_store = std::make_unique<storage::FileStore>(state_dir);
  }
  faults::CircuitBreaker breaker;
  std::unique_ptr<faults::BreakerStore> breaker_store;
  storage::ObjectStore* store = owned_store.get();
  if (use_breaker) {
    breaker_store = std::make_unique<faults::BreakerStore>(*owned_store, breaker);
    store = breaker_store.get();
  }

  // The durable journal (with --state) and, with --recover, the plan it
  // dictates: skip completed jobs, resubmit queued ones, re-run
  // interrupted ones under a fresh exchange epoch.
  const std::string journal_key = "journal/serve.log";
  std::unique_ptr<service::JobJournal> journal;
  struct ServeEntry {
    service::ServeJobSpec js;
    std::uint64_t jid = 0;
    int epoch = 0;
  };
  std::vector<ServeEntry> entries;
  if (!state_dir.empty()) {
    journal = std::make_unique<service::JobJournal>(*store, journal_key);
    auto records = journal->open();
    if (!records.ok()) {
      std::fprintf(stderr, "journal error: %s\n", records.status().to_string().c_str());
      return 1;
    }
    if (recover) {
      const service::RecoveryPlan plan = service::build_recovery(*records);
      std::printf("recovery: %zu journaled jobs — %zu completed (skipped), "
                  "%zu resubmitted, %zu re-run under a fresh epoch\n",
                  plan.jobs.size(), plan.completed, plan.to_resubmit, plan.to_rerun);
      // Journaled jobs first, by jid: skip completed ones, re-enqueue
      // the rest with their durable identity (jid, next epoch).
      std::multiset<std::string> journaled_lines;
      for (const service::RecoveredJob& rj : plan.jobs) {
        journaled_lines.insert(rj.payload);
        if (rj.disposition == service::RecoveredJob::Disposition::kSkip) continue;
        auto rspec = service::parse_serve_spec(rj.payload);
        if (!rspec.ok() || rspec->jobs.size() != 1) {
          std::fprintf(stderr, "recovery: jid %llu payload unparsable: %s\n",
                       static_cast<unsigned long long>(rj.jid),
                       rspec.ok() ? "not a single job line"
                                  : rspec.status().to_string().c_str());
          return 1;
        }
        ServeEntry entry;
        entry.js = std::move(rspec->jobs[0]);
        entry.js.arrival = 0.0;  // recovered work runs immediately
        entry.jid = rj.jid;
        entry.epoch = rj.next_epoch;
        entries.push_back(std::move(entry));
      }
      // Spec jobs the crashed run never got to journal (the client died
      // before submitting them) are submitted fresh — matched to the
      // journal by payload line so nothing runs twice or gets lost.
      for (service::ServeJobSpec& js : spec->jobs) {
        const auto seen = journaled_lines.find(js.line);
        if (seen != journaled_lines.end()) {
          journaled_lines.erase(seen);
          continue;
        }
        ServeEntry entry;
        entry.js = std::move(js);
        entries.push_back(std::move(entry));
      }
    }
  }
  if (!recover) {
    for (service::ServeJobSpec& js : spec->jobs) {
      ServeEntry entry;
      entry.js = std::move(js);
      entries.push_back(std::move(entry));
    }
  }

  service::ServiceOptions options;
  options.admission = spec->admission;
  options.external = external;
  options.max_queue_depth = spec->max_queue_depth;
  options.reject_infeasible = spec->reject_infeasible;
  options.journal = journal.get();
  options.persist_sinks = !state_dir.empty();
  options.cache_bytes = spec->cache_bytes;
  options.persist_cache = !state_dir.empty();
  service::JobService svc(*cl, *store, options);

  // Live endpoints: enable metrics collection (bounding the trace ring
  // for long-serving processes) and expose /metrics, /jobs, /healthz.
  std::unique_ptr<service::HttpEndpoint> http;
  if (http_port >= 0) {
    obs::set_observability_enabled(true);
    obs::TraceCollector::global().set_capacity(1 << 16);
    service::HttpEndpoint::Options hopts;
    hopts.port = http_port;
    hopts.service = &svc;
    http = std::make_unique<service::HttpEndpoint>(hopts);
    const Status st = http->start();
    if (!st.is_ok()) {
      std::fprintf(stderr, "http endpoint: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("http: serving /metrics /jobs /healthz on http://127.0.0.1:%d\n",
                http->port());
  }

  std::printf("cluster: %s (%d slots)  policy: %s  jobs: %zu\n\n", cluster_spec.c_str(),
              cl->total_slots(), service::admission_policy_name(spec->admission.policy),
              entries.size());

  // Submit in arrival order, sleeping out the offsets so admission sees
  // a moving free-slot view (like real tenant traffic would produce).
  std::vector<std::size_t> order(entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return entries[a].js.arrival < entries[b].js.arrival;
  });

  struct Submitted {
    std::size_t entry_index;
    service::JobId id;
  };
  std::vector<Submitted> submitted;
  std::size_t rejected = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::size_t idx : order) {
    const ServeEntry& entry = entries[idx];
    const service::ServeJobSpec& js = entry.js;
    const auto target = t0 + std::chrono::duration<double>(js.arrival);
    std::this_thread::sleep_until(target);

    auto job = service::make_engine_query_job(js.query, js.data, external);
    if (!job.ok()) {
      std::fprintf(stderr, "job %s: %s\n", js.query.c_str(),
                   job.status().to_string().c_str());
      return 1;
    }
    job->submission.label = js.label.empty() ? js.query : js.label;
    job->submission.objective = js.objective;
    job->submission.deadline = js.deadline;
    job->submission.faults = js.faults;
    job->submission.tier = js.tier;
    job->submission.job_attempts = 1 + js.retries;
    // Result-cache identity: version from the spec line; `cache=off`
    // clears the identity so the job neither probes nor deduplicates.
    job->submission.cache_id.input_version = js.input_version;
    if (!js.cache) job->submission.cache_id = {};
    if (journal != nullptr) job->submission.spec_line = js.line;
    job->submission.jid = entry.jid;
    job->submission.epoch = entry.epoch;
    auto id = svc.submit(job->submission);
    if (!id.ok()) {
      // Bounded-queue fast-rejects (and journal-append failures) turn
      // away one job, not the whole serve run.
      std::fprintf(stderr, "submit %s: %s\n", job->submission.label.c_str(),
                   id.status().to_string().c_str());
      ++rejected;
      continue;
    }
    submitted.push_back({idx, *id});
  }

  std::size_t failed = 0;
  std::printf("%-12s %-5s %-8s %-10s %9s %9s %6s %4s %-6s  %s\n", "label", "query", "tier",
              "state", "queue_s", "jct_s", "slots", "try", "src", "error");
  for (const Submitted& s : submitted) {
    const auto outcome = svc.wait(s.id);
    if (!outcome.ok()) {
      std::fprintf(stderr, "wait failed: %s\n", outcome.status().to_string().c_str());
      return 1;
    }
    const service::ServeJobSpec& js = entries[s.entry_index].js;
    // Where the result came from: a whole-job cache hit, a deduplicated
    // leader's run, or an engine run (possibly with pruned stages).
    const char* src = outcome->dedup_leader != 0 ? "dedup"
                      : outcome->from_cache      ? "cache"
                      : outcome->reused_stages > 0 ? "prune"
                                                   : "run";
    std::printf("%-12s %-5s %-8s %-10s %9.3f %9.3f %6d %4d %-6s  %s\n",
                outcome->label.c_str(), js.query.c_str(), outcome->tier.c_str(),
                service::job_state_name(outcome->state),
                outcome->state == service::JobState::kDone ? outcome->queueing() : 0.0,
                outcome->state == service::JobState::kDone ? outcome->jct() : 0.0,
                outcome->slots_granted, outcome->attempts, src,
                outcome->error.is_ok() ? "-" : outcome->error.to_string().c_str());
    if (outcome->state == service::JobState::kFailed) ++failed;
  }
  svc.drain();
  std::printf("\n%s", svc.summary().to_text().c_str());
  if (const service::ResultCache* rc = svc.result_cache()) {
    const service::CacheStats cs = rc->stats();
    obs::CacheSection cache;
    cache.enabled = true;
    cache.hits = cs.hits;
    cache.partial_hits = cs.partial_hits;
    cache.misses = cs.misses;
    cache.stage_hits = cs.stage_hits;
    cache.insertions = cs.insertions;
    cache.evictions = cs.evictions;
    cache.entries = cs.entries;
    cache.bytes = cs.bytes;
    cache.slot_seconds_saved = cs.slot_seconds_saved;
    std::printf(
        "cache: %zu hits, %zu partial, %zu misses (%.0f%% hit rate); "
        "%zu entries / %.1f MiB live, %zu evicted, %.2f slot-s saved\n",
        cache.hits, cache.partial_hits, cache.misses, 100.0 * cache.hit_rate(),
        cache.entries, static_cast<double>(cache.bytes) / (1024.0 * 1024.0),
        cache.evictions, cache.slot_seconds_saved);
  }
  if (use_breaker) {
    const faults::CircuitBreaker::Counters bc = breaker.counters();
    std::printf("breaker: state %s, %zu trips, %zu fast-fails, %zu probes\n",
                faults::breaker_state_name(breaker.state()), bc.trips, bc.fast_fails,
                bc.probes);
  }
  if (http != nullptr) {
    if (linger > 0.0) {
      std::printf("http: lingering %.1f s for scrapes\n", linger);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::duration<double>(linger));
    }
    std::printf("http: served %llu requests\n",
                static_cast<unsigned long long>(http->requests_served()));
  }
  if ((failed > 0 || rejected > 0) && !best_effort) {
    std::fprintf(stderr, "serve: %zu job(s) failed, %zu rejected\n", failed, rejected);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) return run_serve(argc, argv);

  std::string spec_text = kDemoSpec;
  std::string cluster_spec = "8x96@zipf-0.9";
  Objective objective = Objective::kJct;
  storage::StorageModel store = storage::s3_model();
  std::string trace_out;
  std::string report_out;
  bool print_metrics = false;
  std::string faults_spec;
  std::uint64_t fault_seed = 0;
  bool fault_seed_set = false;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cluster") == 0 && i + 1 < argc) {
      cluster_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      faults_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      fault_seed = std::strtoull(argv[++i], nullptr, 10);
      fault_seed_set = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      print_metrics = true;
    } else if (std::strcmp(argv[i], "--objective") == 0 && i + 1 < argc) {
      const std::string o = argv[++i];
      if (o == "jct") {
        objective = Objective::kJct;
      } else if (o == "cost") {
        objective = Objective::kCost;
      } else {
        return usage();
      }
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      const std::string s = argv[++i];
      if (s == "s3") {
        store = storage::s3_model();
      } else if (s == "redis") {
        store = storage::redis_model();
      } else {
        return usage();
      }
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      std::ifstream f(argv[i]);
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buf;
      buf << f.rdbuf();
      spec_text = buf.str();
    }
  }

  auto dag = workload::parse_job_spec(spec_text);
  if (!dag.ok()) {
    std::fprintf(stderr, "job spec error: %s\n", dag.status().to_string().c_str());
    return 1;
  }
  auto cl = workload::parse_cluster_spec(cluster_spec);
  if (!cl.ok()) {
    std::fprintf(stderr, "cluster spec error: %s\n", cl.status().to_string().c_str());
    return 1;
  }

  workload::PhysicsParams physics;
  physics.store = store;
  workload::apply_physics(*dag, physics);

  const bool observe = !trace_out.empty() || !report_out.empty() || print_metrics;
  if (observe) obs::set_observability_enabled(true);

  sim::SimOptions sim_options;
  if (!faults_spec.empty()) {
    auto parsed = faults::parse_fault_spec(faults_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "fault spec error: %s\n", parsed.status().to_string().c_str());
      return 2;
    }
    sim_options.faults = std::move(parsed).value();
    if (fault_seed_set) sim_options.faults.seed = fault_seed;
    // Arm the mitigations so injected hangs meet speculation.
    sim_options.resilience.speculation_factor = 2.0;
  }

  scheduler::DittoScheduler ditto_sched;
  const auto result =
      sim::run_experiment(*dag, *cl, ditto_sched, objective, store, sim_options);
  if (!result.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n", result.status().to_string().c_str());
    return 1;
  }

  std::printf("cluster: %s (%d slots)  objective: %s  store: %s\n\n", cluster_spec.c_str(),
              cl->total_slots(), objective_name(objective),
              store.capacity == 0 ? "s3" : "redis");
  std::printf("%s", scheduler::explain_plan(*dag, result->plan).c_str());
  std::printf("\nsimulated: JCT %.2f s, cost %.2f GB-s\n", result->sim.jct,
              result->sim.cost.total());

  obs::ResilienceSection resilience;
  if (!faults_spec.empty()) {
    const faults::FaultCounts& fc = result->sim.fault_events;
    const faults::ResilienceStats& rs = result->sim.resilience;
    resilience.enabled = true;
    resilience.fault_spec = sim_options.faults.to_string();
    resilience.fault_seed = sim_options.faults.seed;
    resilience.storage_errors = fc.storage_errors;
    resilience.storage_delays = fc.storage_delays;
    resilience.task_crashes = fc.task_crashes;
    resilience.task_hangs = fc.task_hangs;
    resilience.servers_lost = rs.servers_lost;
    resilience.task_retries = rs.task_retries;
    resilience.storage_retries = rs.storage_retries;
    resilience.speculative_launched = rs.speculative_launched;
    resilience.speculative_wins = rs.speculative_wins;
    resilience.tasks_rerouted = rs.tasks_rerouted;
    resilience.producers_recovered = rs.producers_recovered;
    resilience.duplicate_publishes = rs.duplicate_publishes;
    std::printf(
        "resilience: injected %zu (storage_errors %zu, delays %zu, crashes %zu, hangs %zu, "
        "servers_lost %zu); absorbed via %zu task retries, %zu storage retries, "
        "%zu/%zu speculative launched/won, %zu rerouted, %zu producers recovered\n",
        resilience.injected_total(), fc.storage_errors, fc.storage_delays, fc.task_crashes,
        fc.task_hangs, rs.servers_lost, rs.task_retries, rs.storage_retries,
        rs.speculative_launched, rs.speculative_wins, rs.tasks_rerouted,
        rs.producers_recovered);
  }

  if (!trace_out.empty()) {
    obs::TraceCollector& tc = obs::TraceCollector::global();
    sim::export_trace(*dag, result->plan.placement, result->sim, tc);
    const Status st = tc.write_chrome_json(trace_out);
    if (!st.is_ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("trace: %zu events written to %s (open in Perfetto / chrome://tracing)\n",
                tc.size(), trace_out.c_str());
  }
  if (!report_out.empty()) {
    cluster::RuntimeMonitor monitor;
    sim::JobSimulator::export_records(result->sim, monitor);
    obs::ReportExtras extras;
    extras.actual_cost = result->sim.cost.total();
    extras.trace = &obs::TraceCollector::global();
    extras.metrics = &obs::MetricsRegistry::global();
    if (resilience.enabled) extras.resilience = &resilience;
    const obs::ExecutionReport report =
        obs::build_execution_report(*dag, result->plan, objective, monitor, extras);
    std::ofstream rf(report_out, std::ios::trunc);
    if (!rf) {
      std::fprintf(stderr, "cannot open %s for writing\n", report_out.c_str());
      return 1;
    }
    rf << report.to_json();
    std::printf("report: written to %s\n", report_out.c_str());
  }
  if (print_metrics) {
    std::fprintf(stderr, "%s", obs::MetricsRegistry::global().to_text().c_str());
  }
  return 0;
}
