// Q95 for real: the Ditto scheduler plans the engine-executable Q95
// and the MiniEngine runs it on generated data — the full stack in one
// program, from data to plan to zero-copy execution to the answer.
//
//   tpcds_q95_engine [--pipeline] [--trace-out FILE] [--report]
//                    [--faults SPEC] [--fault-seed N]
//
// --pipeline turns on chunk-granular pipelined shuffles (paper §4.5):
// the model DAG is annotated with pipeline_all_shuffles() so the
// scheduler and predictor credit the overlap, and the engine streams
// exactly the annotated edges (workload::pipelined_edges), running
// producer/consumer overlap groups that actually deliver it. Without
// the flag the model stays unannotated and the engine materializes —
// predictions and runtime agree either way by construction (that
// symmetry is what keeps timemodel drift honest).
//
// --trace-out enables the observability layer and writes the whole run
// (scheduler spans, per-task engine spans, exchange/storage counter
// tracks) as Chrome trace-event JSON for Perfetto. --report prints a
// per-job execution report for the Ditto run.
//
// --faults runs the engine under the seeded fault injector (spec
// grammar in faults/fault_injector.h): storage ops go through a
// FlakyStore, task attempts can crash or hang, a server can die at a
// wave boundary. The answer must still match the reference — retries,
// speculation and server-loss recovery absorb the injected chaos.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "cluster/runtime_monitor.h"
#include "dag/dag_algorithms.h"
#include "exec/engine.h"
#include "faults/fault_injector.h"
#include "faults/flaky_store.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/profile_store.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "timemodel/predictor.h"
#include "scheduler/baselines.h"
#include "scheduler/ditto_scheduler.h"
#include "scheduler/explain.h"
#include "storage/sim_store.h"
#include "workload/engine_queries.h"
#include "workload/physics.h"
#include "workload/pipelining.h"

using namespace ditto;

namespace {

struct RunStats {
  workload::EngineAnswer answer;
  exec::EngineStats stats;
};

/// Profiling context threaded into the engine run (all optional).
struct Profiling {
  obs::StageProfileStore* profiles = nullptr;
  std::uint64_t fingerprint = 0;
  std::vector<double> predicted_stage_seconds;
};

/// Runs `job` under `plan`, streaming the edges `model` annotates.
Result<RunStats> execute(const workload::EngineJob& job, const JobDag& model,
                         const cluster::PlacementPlan& plan,
                         cluster::RuntimeMonitor* monitor = nullptr,
                         faults::FaultInjector* injector = nullptr,
                         const Profiling* profiling = nullptr) {
  auto store = storage::make_redis_sim();
  store->set_real_delay_scale(0.01);  // small real delay: latency gap observable
  exec::EngineOptions options;
  options.stream_edges = workload::pipelined_edges(model);
  if (profiling != nullptr) {
    options.profiles = profiling->profiles;
    options.plan_fingerprint = profiling->fingerprint;
    options.predicted_stage_seconds = profiling->predicted_stage_seconds;
  }
  std::unique_ptr<faults::FlakyStore> flaky;
  if (injector != nullptr) {
    flaky = std::make_unique<faults::FlakyStore>(*store, *injector);
    options.injector = injector;
    options.resilience.speculation_factor = 2.0;  // arm straggler mitigation
  }
  storage::ObjectStore& backing =
      flaky != nullptr ? static_cast<storage::ObjectStore&>(*flaky) : *store;
  exec::MiniEngine engine(job.dag, plan, backing, options);
  DITTO_ASSIGN_OR_RETURN(exec::EngineResult result, engine.run(job.bindings, monitor));
  RunStats out;
  DITTO_ASSIGN_OR_RETURN(out.answer,
                         workload::engine_answer_from_sink(result.sink_outputs.at(job.sink)));
  out.stats = result.stats;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  bool print_report = false;
  std::string faults_spec;
  std::uint64_t fault_seed = 0;
  bool fault_seed_set = false;
  bool pipeline = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0) {
      print_report = true;
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      pipeline = true;
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      faults_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      fault_seed = std::strtoull(argv[++i], nullptr, 10);
      fault_seed_set = true;
    } else {
      std::fprintf(stderr,
                   "usage: tpcds_q95_engine [--pipeline] [--trace-out FILE] [--report] "
                   "[--faults SPEC] [--fault-seed N]\n");
      return 2;
    }
  }
  if (!trace_out.empty() || print_report) obs::set_observability_enabled(true);

  faults::FaultSpec fault_cfg;
  if (!faults_spec.empty()) {
    auto parsed = faults::parse_fault_spec(faults_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "fault spec error: %s\n", parsed.status().to_string().c_str());
      return 2;
    }
    fault_cfg = std::move(parsed).value();
    if (fault_seed_set) fault_cfg.seed = fault_seed;
    std::printf("faults armed: %s (seed %llu)\n", fault_cfg.to_string().c_str(),
                static_cast<unsigned long long>(fault_cfg.seed));
  }

  const workload::EngineQuerySpec spec{.fact_rows = 100000, .num_orders = 15000, .seed = 1234};
  const workload::EngineJob job = workload::build_q95_engine_job(spec);
  const exec::Table& web_sales = *job.sources.at("web_sales");
  std::printf("web_sales: %zu rows (%s); web_returns: %zu rows\n", web_sales.num_rows(),
              bytes_to_string(web_sales.byte_size()).c_str(),
              job.sources.at("web_returns")->num_rows());

  const auto expected = workload::q95_engine_reference(job, spec);
  std::printf("reference answer: %lld qualifying orders, revenue %.2f\n\n",
              static_cast<long long>(expected.rows), expected.value);

  // Plan with Ditto on a 4x8-slot cluster, using physics-derived models
  // over the volumes the builder annotated.
  JobDag model_dag = job.dag;
  workload::PhysicsParams physics;
  physics.store = storage::redis_model();
  workload::apply_physics(model_dag, physics);
  if (pipeline) {
    // The annotation is what makes the engine stream (execute() passes
    // the annotated edges), so predictions and runtime describe the
    // same execution.
    const int annotated = workload::pipeline_all_shuffles(model_dag);
    std::printf("pipelining: %d shuffle edges annotated, engine overlap mode on\n\n",
                annotated);
  }
  auto cl = cluster::Cluster::uniform(4, 8);

  scheduler::DittoScheduler ditto_sched;
  scheduler::NimbleScheduler nimble;
  for (scheduler::Scheduler* sched : {static_cast<scheduler::Scheduler*>(&ditto_sched),
                                      static_cast<scheduler::Scheduler*>(&nimble)}) {
    const auto plan = sched->schedule(model_dag, cl, Objective::kJct, storage::redis_model());
    if (!plan.ok()) {
      std::fprintf(stderr, "scheduling failed: %s\n", plan.status().to_string().c_str());
      return 1;
    }
    std::printf("%s", scheduler::explain_plan(model_dag, *plan).c_str());

    cluster::RuntimeMonitor monitor;
    const bool observing = !trace_out.empty() || print_report;
    std::unique_ptr<faults::FaultInjector> injector;
    if (fault_cfg.any()) injector = std::make_unique<faults::FaultInjector>(fault_cfg);

    // Profiling loop context: record per-task samples under the model
    // DAG's fingerprint and feed predicted stage times for drift.
    obs::StageProfileStore profiles;
    Profiling profiling;
    profiling.profiles = &profiles;
    profiling.fingerprint = structural_fingerprint(model_dag);
    {
      const ExecTimePredictor predictor(model_dag);
      const ColocatedFn colocated = plan->placement.colocated_fn();
      profiling.predicted_stage_seconds.resize(model_dag.num_stages(), 0.0);
      for (StageId s = 0; s < model_dag.num_stages(); ++s) {
        profiling.predicted_stage_seconds[s] =
            predictor.stage_time(s, std::max(1, plan->placement.dop_of(s)), colocated);
      }
    }
    const auto run = execute(job, model_dag, plan->placement, observing ? &monitor : nullptr,
                             injector.get(), &profiling);
    if (!run.ok()) {
      std::fprintf(stderr, "execution failed: %s\n", run.status().to_string().c_str());
      return 1;
    }
    const bool matches =
        run->answer.rows == expected.rows &&
        std::abs(run->answer.value - expected.value) <= 1e-6 * std::max(1.0, expected.value);
    std::printf("  executed: %lld orders, revenue %.2f (%s)\n",
                static_cast<long long>(run->answer.rows), run->answer.value,
                matches ? "matches reference" : "MISMATCH");
    std::printf("  data plane: %zu zero-copy msgs, %zu via store (%s), "
                "%zu chunks published, wall %.1f ms\n",
                run->stats.exchange.zero_copy_messages, run->stats.exchange.remote_messages,
                bytes_to_string(run->stats.exchange.remote_bytes).c_str(),
                run->stats.exchange.chunks_published, run->stats.wall_seconds * 1e3);

    obs::ResilienceSection resilience;
    if (injector != nullptr) {
      const faults::FaultCounts fc = injector->counts();
      const faults::ResilienceStats& rs = run->stats.resilience;
      resilience.enabled = true;
      resilience.fault_spec = fault_cfg.to_string();
      resilience.fault_seed = fault_cfg.seed;
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
          "  resilience: injected %zu faults; %zu task retries, %zu storage retries, "
          "%zu/%zu speculative, %zu rerouted, %zu producers recovered, %zu dup publishes\n",
          resilience.injected_total(), rs.task_retries, rs.storage_retries,
          rs.speculative_launched, rs.speculative_wins, rs.tasks_rerouted,
          rs.producers_recovered, rs.duplicate_publishes);
    }
    std::printf("\n");

    if (print_report && sched == &ditto_sched) {
      obs::ReportExtras extras;
      extras.trace = &obs::TraceCollector::global();
      extras.metrics = &obs::MetricsRegistry::global();
      if (resilience.enabled) extras.resilience = &resilience;
      extras.model_dag = &model_dag;
      const obs::ExecutionReport report = obs::build_execution_report(
          model_dag, *plan, Objective::kJct, monitor, extras);
      std::printf("%s\n", report.to_text().c_str());
      if (!trace_out.empty()) {
        obs::export_critical_path_track(report.critical_path,
                                        obs::TraceCollector::global());
      }
    }
  }

  if (!trace_out.empty()) {
    obs::TraceCollector& tc = obs::TraceCollector::global();
    const Status st = tc.write_chrome_json(trace_out);
    if (!st.is_ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("trace: %zu events written to %s (open in Perfetto / chrome://tracing)\n",
                tc.size(), trace_out.c_str());
  }
  return 0;
}
