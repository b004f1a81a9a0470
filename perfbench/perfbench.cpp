// perfbench: the repo benchmark. One binary runs any of five
// workloads from a workload seed, checks every answer, and prints the
// end-to-end metrics (untraced) or the per-layer metrics (traced) by
// name and unit, ending with one JSON line. See perfbench/README.md for
// what each workload and metric means.
//
//   perfbench --workload engine-tpcds|service-closed|service-open|serve-durable|paper-sim
//                    --seed N --seconds S --trace 0|1 [--out-dir DIR]
//                    [--corrupt-job K]
//
// --out-dir holds per-run state (serve-durable) and the Chrome trace of
// a traced run. --corrupt-job K perturbs the K-th checked answer (the
// self-test uses it to show a wrong answer fails the run).
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/slot_distribution.h"
#include "dag/dag_algorithms.h"
#include "exec/engine.h"
#include "harness.h"
#include "scheduler/ditto_scheduler.h"
#include "service/arrival_trace.h"
#include "service/engine_jobs.h"
#include "service/job_service.h"
#include "service/journal.h"
#include "sim/job_simulator.h"
#include "sim/sim_runner.h"
#include "storage/file_store.h"
#include "storage/sim_store.h"
#include "timemodel/profiler.h"
#include "workload/physics.h"
#include "workload/queries.h"

using namespace ditto;
using perfbench::kMissing;
using perfbench::now_s;

namespace {

namespace fs = std::filesystem;

constexpr const char* kQueries[] = {"q1", "q16", "q94", "q95"};
constexpr int kSetupRepeats = 7;
constexpr int kSetupMaxRepeats = 101;
constexpr double kSetupMinSeconds = 0.5;
constexpr Bytes kCacheBytes = 64ULL << 20;

// Workload constants. Rates are fixed and never calibrated to the host.
constexpr std::size_t kEngineRows = 300000;
constexpr std::int64_t kEngineOrders = 45000;
constexpr std::size_t kEngineMinJobs = 200;
constexpr double kEngineMaxStretch = 1.5;  ///< x --seconds, on a slow host
constexpr std::size_t kServiceRows = 12000;
constexpr std::int64_t kServiceOrders = 3000;
constexpr std::size_t kOpenTemplates = 16;
/// Fixed rate ladder for the saturation search; the first rung is the
/// nominal rate JCT is reported at. Each later rung offers about
/// kRungJobsPerSecond x --seconds arrivals, and the climb stops at the
/// first rung that misses the p95 limit.
constexpr double kOpenLadderHz[] = {25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 200.0, 250.0};
constexpr double kNominalShare = 0.5;  ///< of --seconds, at the first rung
constexpr double kRungJobsPerSecond = 10.0;
constexpr double kOpenP95LimitMs = 100.0;
constexpr std::size_t kDurableTemplates = 8;
constexpr double kDurableHz = 100.0;
constexpr std::size_t kDurableColdEvery = 10;  ///< 90% recurring
constexpr double kDurableEpisodeS = 5.0;
/// Open-loop validity: p99 wake-up lateness of the idle submitter.
constexpr double kGenLagBoundMs = 20.0;
/// Clock tolerance of the JCT breakdown: no job may show the client
/// seeing completion more than this before the service's finish stamp.
constexpr double kBreakdownTolMs = 2.0;
/// paper-sim's nominal reference-kernel time (perfbench::reference_kernel).
constexpr double kReferenceKernelS = 0.003;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  long corrupt_job = -1;
};

/// Tracing state shared by one traced pass.
struct TraceCtx {
  perfbench::SpanLog spans;
  std::atomic<std::uint64_t> compute_ns{0};
};

/// Answer checking shared by every workload. `corrupt_job` makes the
/// K-th check see a perturbed answer (self-test only).
class Checker {
 public:
  explicit Checker(long corrupt_job) : corrupt_job_(corrupt_job) {}

  bool check(const service::EngineQueryJob& ref, const std::map<StageId, exec::Table>& sinks) {
    const long n = checked_++;
    const auto it = sinks.find(ref.sink);
    if (it == sinks.end()) return false;
    auto answer = ref.extract(it->second);
    if (!answer.ok()) return false;
    std::int64_t rows = answer->rows;
    if (n == corrupt_job_) rows += 1;
    const double tol = 1e-6 * std::max(1.0, std::abs(ref.ref_value));
    return rows == ref.ref_rows && std::abs(answer->value - ref.ref_value) <= tol;
  }

 private:
  long corrupt_job_;
  long checked_ = 0;
};

/// Wraps every stage function so each task records a span keyed by
/// (job, stage, task) and adds its time to the pass's compute total.
std::map<StageId, exec::StageBinding> traced_bindings(
    const std::map<StageId, exec::StageBinding>& in, std::uint64_t job, TraceCtx* ctx) {
  std::map<StageId, exec::StageBinding> out = in;
  for (auto& [stage, b] : out) {
    const std::string base = "stage-" + std::to_string(stage) + "/task-";
    auto record = [ctx, job, base](int task, double t0) {
      const double t1 = now_s();
      ctx->compute_ns.fetch_add(static_cast<std::uint64_t>((t1 - t0) * 1e9));
      ctx->spans.add("task", base + std::to_string(task), job, t0, t1);
    };
    if (b.fn) {
      b.fn = [fn = b.fn, record, job](int task, int dop, const std::vector<exec::Table>& ins) {
        perfbench::current_job = job;
        const double t0 = now_s();
        auto r = fn(task, dop, ins);
        record(task, t0);
        return r;
      };
    }
    if (b.stream_fn) {
      b.stream_fn = [fn = b.stream_fn, record, job](int task, int dop,
                                                    std::vector<exec::TableChunkFn>& ins) {
        perfbench::current_job = job;
        const double t0 = now_s();
        auto r = fn(task, dop, ins);
        record(task, t0);
        return r;
      };
    }
  }
  return out;
}

/// Stage groups of a plan: stages joined by zero-copy edges count once.
int plan_groups(const cluster::PlacementPlan& plan) {
  std::vector<std::size_t> parent(plan.dop.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };
  int groups = static_cast<int>(parent.size());
  for (const auto& [a, b] : plan.zero_copy_edges) {
    if (a >= parent.size() || b >= parent.size()) continue;
    const std::size_t ra = find(a), rb = find(b);
    if (ra != rb) {
      parent[ra] = rb;
      --groups;
    }
  }
  return groups;
}

/// Sums engine statistics and profile-store task samples over a pass.
struct ExecAgg {
  double tasks = 0, zero_copy = 0, remote = 0, remote_bytes = 0, chunks = 0, dup = 0;
  double spec_launched = 0, spec_wins = 0, retries = 0;

  void add(const exec::EngineStats& s) {
    tasks += static_cast<double>(s.tasks_run);
    zero_copy += static_cast<double>(s.exchange.zero_copy_messages);
    remote += static_cast<double>(s.exchange.remote_messages);
    remote_bytes += static_cast<double>(s.exchange.remote_bytes);
    chunks += static_cast<double>(s.exchange.chunks_published);
    dup += static_cast<double>(s.exchange.duplicate_publishes);
    spec_launched += static_cast<double>(s.resilience.speculative_launched);
    spec_wins += static_cast<double>(s.resilience.speculative_wins);
    retries += static_cast<double>(s.resilience.task_retries);
  }
};

/// Writes the exec/exchange/faults metrics; `jobs` normalizes per job.
/// Profile-store times are count x EWMA estimates of the task totals.
void report_exec(perfbench::Report& r, const ExecAgg& a,
                 const std::vector<obs::StageProfile>& profiles, const TraceCtx& ctx,
                 double jobs) {
  const double per = jobs > 0 ? 1.0 / jobs : 0.0;
  std::map<std::string, double> kernel_s;
  double queue_s = 0, transport_s = 0;
  for (const auto& p : profiles) {
    const double n = static_cast<double>(p.count);
    queue_s += n * p.ewma_queue;
    transport_s += n * p.ewma_transport;
    for (const auto& [k, v] : p.ewma_kernel) kernel_s[k] += n * v;
  }
  for (const char* k : {"group_by", "join", "filter", "top_k"}) {
    r.set(std::string("exec.kernel_ms.") + k, kernel_s[k] * 1e3 * per, "ms/job");
  }
  r.set("exec.task_compute_ms", static_cast<double>(ctx.compute_ns.load()) * 1e-6 * per,
        "ms/job");
  r.set("exec.task_queue_ms", queue_s * 1e3 * per, "ms/job");
  r.set("exec.task_transport_ms", transport_s * 1e3 * per, "ms/job");
  r.set("exec.tasks", a.tasks * per, "count/job");
  r.set("exchange.zero_copy_msgs", a.zero_copy * per, "count/job");
  r.set("exchange.remote_msgs", a.remote * per, "count/job");
  r.set("exchange.remote_mb", a.remote_bytes / 1e6 * per, "MB/job");
  r.set("exchange.chunks_published", a.chunks * per, "count/job");
  r.set("exchange.duplicate_publishes", a.dup * per, "count/job");
  r.set("faults.speculative_launched", a.spec_launched, "count");
  r.set("faults.speculative_wins", a.spec_wins, "count");
  r.set("faults.task_retries", a.retries, "count");
}

void report_storage(perfbench::Report& r, const perfbench::TimingStore& ts, double jobs) {
  const double per = jobs > 0 ? 1.0 / jobs : 0.0;
  for (int c = 0; c < perfbench::kNumKeyClasses; ++c) {
    const auto kc = static_cast<perfbench::KeyClass>(c);
    const perfbench::StoreClassStats s = ts.class_stats(kc);
    const std::string p = std::string("storage.") + perfbench::key_class_name(kc) + ".";
    r.set(p + "put_count", static_cast<double>(s.puts) * per, "count/job");
    r.set(p + "put_mb", s.put_bytes / 1e6 * per, "MB/job");
    r.set(p + "put_ms", s.put_s * 1e3 * per, "ms/job");
    r.set(p + "get_count", static_cast<double>(s.gets) * per, "count/job");
    r.set(p + "get_mb", s.get_bytes / 1e6 * per, "MB/job");
    r.set(p + "get_ms", s.get_s * 1e3 * per, "ms/job");
    r.set(p + "live_mb", s.live_bytes / 1e6, "MB");
  }
  r.set("storage.live_mb", static_cast<double>(ts.used_bytes()) / 1e6, "MB");
}

/// Every per-layer metric a traced run prints, in order; a layer a
/// workload does not exercise reads 0.
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"exec.kernel_ms.group_by", "ms/job"}, {"exec.kernel_ms.join", "ms/job"},
      {"exec.kernel_ms.filter", "ms/job"},   {"exec.kernel_ms.top_k", "ms/job"},
      {"exec.task_compute_ms", "ms/job"},    {"exec.task_queue_ms", "ms/job"},
      {"exec.task_transport_ms", "ms/job"},  {"exec.tasks", "count/job"},
      {"exchange.zero_copy_msgs", "count/job"}, {"exchange.remote_msgs", "count/job"},
      {"exchange.remote_mb", "MB/job"},      {"exchange.chunks_published", "count/job"},
      {"exchange.duplicate_publishes", "count/job"},
  };
  for (const char* c : {"exchange", "journal", "sinks", "cache"}) {
    const std::string p = std::string("storage.") + c + ".";
    for (const auto& [n, u] : std::vector<std::pair<const char*, const char*>>{
             {"put_count", "count/job"}, {"put_mb", "MB/job"}, {"put_ms", "ms/job"},
             {"get_count", "count/job"}, {"get_mb", "MB/job"}, {"get_ms", "ms/job"},
             {"live_mb", "MB"}}) {
      m.emplace_back(p + n, u);
    }
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"storage.live_mb", "MB"},
      {"journal.appends", "count"},
      {"journal.put_ms", "ms"},
      {"journal.write_amp", "ratio"},
      {"cache.hit_frac", "ratio"},
      {"cache.dedup_followers", "count"},
      {"cache.insertions", "count"},
      {"cache.evictions", "count"},
      {"cache.slot_seconds_saved", "s"},
      {"service.queue_ms", "ms"},
      {"service.launch_ms", "ms"},
      {"service.run_ms", "ms"},
      {"service.utilization", "ratio"},
      {"service.slots_granted", "count"},
      {"service.submit_p95_ms", "ms"},
      {"service.breakdown_gap_ms", "ms"},
      {"scheduler.plan_us", "us"},
      {"scheduler.dop_total", "count"},
      {"scheduler.groups", "count"},
      {"timemodel.pred_err_frac", "ratio"},
      {"timemodel.model_build_ms", "ms"},
      {"faults.speculative_launched", "count"},
      {"faults.speculative_wins", "count"},
      {"faults.task_retries", "count"},
      {"sim.run_ms", "ms"},
      {"sim.jct_s", "s"},
      {"sim.cost_gbs", "GB-s"},
      {"gen.lag_p99_ms", "ms"},
      {"gen.lag_max_ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
      {"obs.spans", "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// What one measured pass of a workload produced.
struct Pass {
  std::vector<double> jct_ms;  ///< per job; kMissing for any failure
  perfbench::Tally tally;
  double elapsed_s = 0.0;
  double jobs_per_s = 0.0;
  std::vector<double> slot_s;  ///< slots held x seconds, per engine run
  perfbench::Report layers;    ///< per-layer metrics (traced pass only)
  std::string invalid;         ///< non-empty = the run is invalid, not slow
};

// ---------------------------------------------------------------------
// engine-tpcds: closed loop, one client, standalone MiniEngine.

struct EngineState {
  std::vector<service::EngineQueryJob> jobs;
  std::vector<std::uint64_t> fingerprints;
  double model_build_ms = 0.0;
};

std::unique_ptr<EngineState> setup_engine(const Args& args) {
  auto st = std::make_unique<EngineState>();
  const storage::StorageModel ext = storage::redis_model();
  for (int q = 0; q < 4; ++q) {
    workload::EngineQuerySpec spec;
    spec.fact_rows = kEngineRows;
    spec.num_orders = kEngineOrders;
    spec.seed = mix(args.seed, static_cast<std::uint64_t>(q));
    auto job = service::make_engine_query_job(kQueries[q], spec, ext);
    if (!job.ok()) {
      std::fprintf(stderr, "engine job %s: %s\n", kQueries[q], job.status().to_string().c_str());
      std::exit(1);
    }
    // The time model the scheduler plans against, rebuilt here only to
    // time it (make_engine_query_job already built one).
    const double t0 = now_s();
    JobDag model = job->submission.dag;
    workload::PhysicsParams physics;
    physics.store = ext;
    workload::apply_physics(model, physics);
    st->model_build_ms += (now_s() - t0) * 1e3;
    st->fingerprints.push_back(structural_fingerprint(job->submission.model_dag));
    st->jobs.push_back(std::move(*job));
  }
  return st;
}

Pass run_engine(EngineState& st, double seconds, TraceCtx* ctx, Checker& checker) {
  Pass pass;
  const storage::StorageModel ext = storage::redis_model();
  auto cl = cluster::Cluster::uniform(4, 8);
  scheduler::DittoScheduler sched;
  obs::StageProfileStore profiles;
  std::unique_ptr<storage::MemStore> inner;
  std::unique_ptr<perfbench::TimingStore> timing;
  ExecAgg agg;
  std::vector<double> plan_us, dop_total, groups, pred_err;

  const double start = now_s();
  const double deadline = start + seconds;
  std::uint64_t job_id = 0;
  // Whole rounds of the four queries, so every run has the same mix,
  // and enough of them for p95 to rest on ten samples (up to a cap).
  auto more = [&] {
    const double t = now_s();
    if (t >= start + kEngineMaxStretch * seconds) return false;
    return t < deadline || pass.jct_ms.size() < kEngineMinJobs;
  };
  while (more()) {
    // A fresh store per round drops the previous round's exchange objects.
    timing.reset();
    inner = storage::make_instant_store();
    if (ctx != nullptr) timing = std::make_unique<perfbench::TimingStore>(*inner, &ctx->spans);
    for (std::size_t q = 0; q < st.jobs.size(); ++q) {
      const service::EngineQueryJob& job = st.jobs[q];
      ++job_id;
      const double t0 = now_s();
      bool ok = false;
      auto plan = sched.schedule(job.submission.model_dag, cl, Objective::kJct, ext);
      const double t_plan = now_s();
      if (plan.ok()) {
        exec::EngineOptions opts;
        std::map<StageId, exec::StageBinding> traced;
        if (ctx != nullptr) {
          opts.profiles = &profiles;
          opts.plan_fingerprint = st.fingerprints[q];
          traced = traced_bindings(job.submission.bindings, job_id, ctx);
        }
        storage::ObjectStore& store =
            timing ? static_cast<storage::ObjectStore&>(*timing) : *inner;
        exec::MiniEngine engine(job.submission.dag, plan->placement, store, opts);
        auto result = engine.run(ctx != nullptr ? traced : job.submission.bindings);
        if (result.ok()) {
          ok = checker.check(job, result->sink_outputs);
          agg.add(result->stats);
          const double wall = result->stats.wall_seconds;
          if (wall > 0) pred_err.push_back(std::abs(plan->predicted.jct - wall) / wall);
        }
        plan_us.push_back(plan->scheduling_seconds * 1e6);
        dop_total.push_back(plan->placement.total_slots_used());
        groups.push_back(plan_groups(plan->placement));
      }
      const double t1 = now_s();
      pass.tally.add(ok);
      pass.jct_ms.push_back(ok ? (t1 - t0) * 1e3 : kMissing);
      if (ok) pass.slot_s.push_back(plan->placement.total_slots_used() * (t1 - t0));
      if (ctx != nullptr) {
        ctx->spans.add("job", std::string(kQueries[q]), job_id, t0, t1);
        ctx->spans.add("scheduler", "schedule", job_id, t0, t_plan);
        ctx->spans.add("engine", "MiniEngine::run", job_id, t_plan, t1);
      }
    }
  }
  pass.elapsed_s = now_s() - start;
  pass.jobs_per_s = static_cast<double>(pass.jct_ms.size()) / pass.elapsed_s;

  if (ctx != nullptr) {
    const double jobs = static_cast<double>(pass.jct_ms.size());
    report_exec(pass.layers, agg, profiles.all(), *ctx, jobs);
    // The store is replaced each round; report the last round's.
    report_storage(pass.layers, *timing, static_cast<double>(st.jobs.size()));
    pass.layers.set("scheduler.plan_us", perfbench::percentile(plan_us, 0.5), "us");
    pass.layers.set("scheduler.dop_total", perfbench::mean(dop_total), "count");
    pass.layers.set("scheduler.groups", perfbench::mean(groups), "count");
    pass.layers.set("timemodel.pred_err_frac", perfbench::percentile(pred_err, 0.5), "ratio");
    pass.layers.set("timemodel.model_build_ms", st.model_build_ms, "ms");
  }
  return pass;
}

// ---------------------------------------------------------------------
// service-open and serve-durable: open-loop arrivals into a JobService.

struct Template {
  std::string query;
  workload::EngineQuerySpec spec;
  service::EngineQueryJob job;
};

std::vector<Template> build_templates(std::size_t n, std::size_t rows, std::int64_t orders,
                                      std::uint64_t seed) {
  std::vector<Template> out;
  const storage::StorageModel ext = storage::redis_model();
  for (std::size_t k = 0; k < n; ++k) {
    Template t;
    t.query = kQueries[k % 4];
    t.spec.fact_rows = rows;
    t.spec.num_orders = orders;
    t.spec.seed = mix(seed, 100 + k) % 1000000007ULL;
    auto job = service::make_engine_query_job(t.query, t.spec, ext);
    if (!job.ok()) {
      std::fprintf(stderr, "template %zu: %s\n", k, job.status().to_string().c_str());
      std::exit(1);
    }
    t.job = std::move(*job);
    out.push_back(std::move(t));
  }
  return out;
}

/// One arrival, ready to submit: its due offset and template.
struct Arrival {
  double at_s = 0.0;
  std::size_t tmpl = 0;
  std::uint64_t version = 0;  ///< 0 = the template's cache identity
};

/// Poisson arrivals from service::generate_trace, each drawing one of
/// `templates` recurring jobs. Every `cold_every`-th arrival is cold: it
/// keeps its template's tables under a never-seen input_version, so the
/// cache cannot serve it and no new data is generated. A fixed cold
/// share keeps the work mix the same from seed to seed.
std::vector<Arrival> make_arrivals(double rate_hz, double duration_s, std::size_t templates,
                                   std::size_t cold_every, std::uint64_t seed,
                                   std::uint64_t* next_version) {
  service::TraceOptions opts;
  opts.rate_hz = rate_hz;
  opts.duration_s = duration_s;
  opts.repeat_ratio = 1.0;
  opts.distinct_jobs = templates;
  opts.seed = seed;
  auto trace = service::generate_trace(opts);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace.status().to_string().c_str());
    std::exit(1);
  }
  std::vector<Arrival> out;
  for (std::size_t i = 0; i < trace->size(); ++i) {
    Arrival arr;
    arr.at_s = (*trace)[i].at_s;
    arr.tmpl = (*trace)[i].template_id;
    if (i % cold_every == cold_every - 1) arr.version = (*next_version)++;
    out.push_back(arr);
  }
  return out;
}

/// Writes back the file system holding `dir`, so earlier episodes'
/// dirty pages and deletions are not flushed inside a measured window.
void flush_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

struct ServiceConfig {
  /// Non-empty = a FileStore under this directory backs everything;
  /// empty = an in-memory store does.
  std::string state_dir;
  /// Journal every job and persist sinks and the cache to the store.
  bool journal = false;
  /// > 0 = closed loop: one client submits the next job when the last
  /// completes, for at least this many seconds and kEngineMinJobs jobs
  /// (capped at kEngineMaxStretch x); arrival times are ignored.
  double closed_s = 0.0;
};

/// One open-loop episode against a fresh service.
struct Episode {
  std::vector<double> jct_ms;   ///< by arrival; kMissing for failures
  std::vector<double> lag_ms;   ///< idle-submitter wake-up lateness
  std::vector<double> submit_ms;
  std::vector<double> slot_s;
  perfbench::Tally tally;
  double elapsed_s = 0.0;
  double first_quarter_ms = 0.0, last_quarter_ms = 0.0;
};

Episode run_episode(const std::vector<Template>& templates, const std::vector<Arrival>& arrivals,
                    const ServiceConfig& cfg, const std::string& label_prefix,
                    std::uint64_t job_base, TraceCtx* ctx, Checker& checker,
                    perfbench::Report* layers) {
  const storage::StorageModel ext = storage::redis_model();
  std::unique_ptr<storage::ObjectStore> inner;
  if (cfg.state_dir.empty()) {
    inner = std::make_unique<storage::MemStore>(ext, "redis");
  } else {
    std::error_code ec;
    fs::remove_all(cfg.state_dir, ec);
    inner = std::make_unique<storage::FileStore>(cfg.state_dir, ext);
    flush_filesystem(cfg.state_dir);
  }
  std::unique_ptr<perfbench::TimingStore> timing;
  if (ctx != nullptr) timing = std::make_unique<perfbench::TimingStore>(*inner, &ctx->spans);
  storage::ObjectStore& store = timing ? static_cast<storage::ObjectStore&>(*timing) : *inner;

  std::unique_ptr<service::JobJournal> journal;
  service::ServiceOptions options;
  options.external = ext;
  options.cache_bytes = kCacheBytes;
  if (cfg.journal) {
    journal = std::make_unique<service::JobJournal>(store, "journal/serve.log");
    options.journal = journal.get();
    options.persist_sinks = true;
    options.persist_cache = !cfg.state_dir.empty();
  }

  // Submissions are built before the clock starts.
  std::vector<service::JobSubmission> subs;
  subs.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const Template& t = templates[a.tmpl];
    service::JobSubmission sub = t.job.submission;
    sub.label = label_prefix + std::to_string(i);
    if (a.version != 0) sub.cache_id.input_version = a.version;
    if (journal) {
      sub.spec_line = "job " + t.query + " rows=" + std::to_string(t.spec.fact_rows) +
                      " orders=" + std::to_string(t.spec.num_orders) +
                      " seed=" + std::to_string(t.spec.seed) +
                      " input_version=" + std::to_string(sub.cache_id.input_version) +
                      " label=" + sub.label;
    }
    if (ctx != nullptr) sub.bindings = traced_bindings(sub.bindings, job_base + i, ctx);
    subs.push_back(std::move(sub));
  }

  Episode ep;
  std::size_t n = arrivals.size();  ///< arrivals actually submitted
  auto cl = cluster::Cluster::uniform(4, 8);
  std::vector<double> due(arrivals.size()), sub0(arrivals.size()), sub1(arrivals.size());
  std::vector<service::JobId> ids(arrivals.size(), 0);
  std::vector<double> observed(arrivals.size(), kMissing);
  std::vector<service::JobOutcome> outcomes;
  service::ServiceSummary summary;
  service::CacheStats cache_stats;
  std::vector<obs::StageProfile> profiles;
  std::size_t journal_appends = 0;
  {
    service::JobService svc(cl, store, options);
    // One short-lived waiter per job records, on the benchmark clock,
    // when the client sees the job complete (`wait` returns): that
    // moment ends the job's JCT. Finished waiters are joined in order.
    std::vector<std::thread> waiters;
    std::unique_ptr<std::atomic<bool>[]> waited(new std::atomic<bool>[arrivals.size()]);
    std::size_t joined = 0;
    const double t0 = now_s();
    double prev_done = t0;
    for (std::size_t i = 0; i < n; ++i) {
      if (cfg.closed_s > 0) {
        const double t = now_s();
        if (t >= t0 + kEngineMaxStretch * cfg.closed_s ||
            (t >= t0 + cfg.closed_s && i >= kEngineMinJobs && i % templates.size() == 0)) {
          n = i;
          break;
        }
        due[i] = t;
      } else {
        due[i] = t0 + arrivals[i].at_s;
      }
      const bool idle = prev_done < due[i];
      std::this_thread::sleep_until(perfbench::Clock::now() +
                                    std::chrono::duration<double>(due[i] - now_s()));
      sub0[i] = now_s();
      if (idle) ep.lag_ms.push_back((sub0[i] - due[i]) * 1e3);
      auto id = svc.submit(std::move(subs[i]));
      sub1[i] = now_s();
      prev_done = sub1[i];
      ep.submit_ms.push_back((sub1[i] - sub0[i]) * 1e3);
      waited[i].store(false);
      if (id.ok() && cfg.closed_s > 0) {
        ids[i] = *id;
        (void)svc.wait(*id);
        observed[i] = now_s();
        // The service never deletes a job's exchange objects; drop them
        // so memory stays bounded over a long closed loop.
        for (const std::string& key : inner->list("job-")) (void)inner->remove(key);
      } else if (id.ok()) {
        ids[i] = *id;
        waiters.emplace_back([&svc, &observed, &waited, i, jid = *id] {
          (void)svc.wait(jid);
          observed[i] = now_s();
          waited[i].store(true);
        });
      } else {
        waiters.emplace_back([&waited, i] { waited[i].store(true); });
      }
      while (joined < waiters.size() && waited[joined].load()) waiters[joined++].join();
      if (ctx != nullptr) {
        ctx->spans.add("service", "submit", job_base + i, sub0[i], sub1[i]);
      }
    }
    outcomes = svc.drain();
    ep.elapsed_s = now_s() - t0;
    for (; joined < waiters.size(); ++joined) waiters[joined].join();
    summary = svc.summary();
    if (const auto* rc = svc.result_cache()) cache_stats = rc->stats();
    profiles = svc.profiles().all();
    if (journal) journal_appends = journal->appended();
  }

  std::map<service::JobId, const service::JobOutcome*> by_id;
  for (const auto& o : outcomes) by_id[o.id] = &o;

  std::vector<double> queue_ms, launch_ms, run_ms, gap_ms, slots;
  double followers = 0, from_cache = 0, done = 0;
  ExecAgg agg;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = by_id.find(ids[i]);
    bool ok = false;
    double jct = kMissing;
    if (ids[i] != 0 && it != by_id.end()) {
      const service::JobOutcome& o = *it->second;
      if (o.state != service::JobState::kDone) {
        std::fprintf(stderr, "job %s %s: %s\n", o.label.c_str(), service::job_state_name(o.state),
                     o.error.to_string().c_str());
      }
      if (o.state == service::JobState::kDone) {
        ok = checker.check(templates[arrivals[i].tmpl].job, o.sink_outputs);
        if (!ok) std::fprintf(stderr, "job %s: wrong answer\n", o.label.c_str());
        ++done;
        if (o.from_cache) ++from_cache;
        if (o.dedup_leader != 0) ++followers;
        if (!o.from_cache) {
          agg.add(o.stats);
          slots.push_back(o.slots_granted);
          ep.slot_s.push_back(o.slots_granted * (o.finished - o.started));
          launch_ms.push_back((o.started - o.admitted) * 1e3);
          run_ms.push_back((o.finished - o.started) * 1e3);
        }
        queue_ms.push_back((o.admitted - o.submitted) * 1e3);
        jct = (observed[i] - due[i]) * 1e3;
        // JCT = lag + queue + launch + run + gap, where the gap runs from
        // the service's finish stamp to the client seeing completion.
        const double parts = (sub0[i] - due[i]) + (o.admitted - o.submitted) +
                             (o.started - o.admitted) + (o.finished - o.started);
        gap_ms.push_back(jct - parts * 1e3);
        if (ctx != nullptr) {
          ctx->spans.add("job", o.label, job_base + i, due[i], observed[i]);
        }
      }
    }
    ep.tally.add(ok);
    ep.jct_ms.push_back(ok ? jct : kMissing);
  }
  const std::size_t quarter = std::max<std::size_t>(1, ep.jct_ms.size() / 4);
  if (ep.jct_ms.size() >= 4) {
    ep.first_quarter_ms = perfbench::mean(
        std::vector<double>(ep.jct_ms.begin(), ep.jct_ms.begin() + quarter));
    ep.last_quarter_ms =
        perfbench::mean(std::vector<double>(ep.jct_ms.end() - quarter, ep.jct_ms.end()));
  }

  if (layers != nullptr && ctx != nullptr) {
    perfbench::Report& r = *layers;
    const double jobs = static_cast<double>(n);
    report_exec(r, agg, profiles, *ctx, jobs);
    report_storage(r, *timing, jobs);
    const perfbench::StoreClassStats js = timing->class_stats(perfbench::KeyClass::kJournal);
    r.set("journal.appends", static_cast<double>(journal_appends), "count");
    r.set("journal.put_ms", js.puts > 0 ? js.put_s * 1e3 / static_cast<double>(js.puts) : 0.0,
          "ms");
    r.set("journal.write_amp", js.live_bytes > 0 ? js.put_bytes / js.live_bytes : 0.0, "ratio");
    r.set("cache.hit_frac", done > 0 ? from_cache / done : 0.0, "ratio");
    r.set("cache.dedup_followers", followers, "count");
    r.set("cache.insertions", static_cast<double>(cache_stats.insertions), "count");
    r.set("cache.evictions", static_cast<double>(cache_stats.evictions), "count");
    r.set("cache.slot_seconds_saved", cache_stats.slot_seconds_saved, "s");
    r.set("service.queue_ms", perfbench::percentile(queue_ms, 0.5), "ms");
    r.set("service.launch_ms", perfbench::percentile(launch_ms, 0.5), "ms");
    r.set("service.run_ms", perfbench::percentile(run_ms, 0.5), "ms");
    r.set("service.utilization", summary.avg_utilization, "ratio");
    r.set("service.slots_granted", perfbench::mean(slots), "count");
    r.set("service.submit_p95_ms", perfbench::percentile(ep.submit_ms, 0.95), "ms");
    r.set("service.breakdown_gap_ms", perfbench::percentile(gap_ms, 0.5), "ms");
    std::vector<double> dop_total, groups;
    for (const auto& o : outcomes) {
      if (o.from_cache || o.plan.dop.empty()) continue;
      dop_total.push_back(o.plan.total_slots_used());
      groups.push_back(plan_groups(o.plan));
    }
    r.set("scheduler.dop_total", perfbench::mean(dop_total), "count");
    r.set("scheduler.groups", perfbench::mean(groups), "count");
    std::size_t inconsistent = 0;
    for (double g : gap_ms) inconsistent += g < -kBreakdownTolMs ? 1 : 0;
    std::printf("breakdown check: JCT = lag + queue + launch + run + gap over %zu jobs; "
                "median gap %.3f ms; %zu job(s) below -%.1f ms: %s\n",
                gap_ms.size(), perfbench::percentile(gap_ms, 0.5), inconsistent,
                kBreakdownTolMs, inconsistent == 0 ? "ok" : "INCONSISTENT");
  }
  if (!cfg.state_dir.empty()) {
    std::error_code ec;
    fs::remove_all(cfg.state_dir, ec);
  }
  return ep;
}

void set_gen_lag(perfbench::Report& r, const std::vector<double>& lag_ms) {
  r.set("gen.lag_p99_ms", perfbench::percentile(lag_ms, 0.99), "ms");
  r.set("gen.lag_max_ms", lag_ms.empty() ? 0.0 : *std::max_element(lag_ms.begin(), lag_ms.end()),
        "ms");
}

std::string check_lag(const std::vector<double>& lag_ms) {
  const double p99 = perfbench::percentile(lag_ms, 0.99);
  if (lag_ms.empty() || p99 <= kGenLagBoundMs) return "";
  char buf[160];
  std::snprintf(buf, sizeof buf, "generator lag p99 %.2f ms exceeds the %.1f ms bound", p99,
                kGenLagBoundMs);
  return buf;
}

struct OpenState {
  std::vector<Template> templates;
  std::vector<std::vector<Arrival>> ladder;  ///< [0] = the nominal rung
};

std::unique_ptr<OpenState> setup_open(const Args& args, double seconds, bool ladder) {
  auto st = std::make_unique<OpenState>();
  st->templates = build_templates(kOpenTemplates, kServiceRows, kServiceOrders, args.seed);
  std::uint64_t version = 1;
  std::uint64_t k = 1;
  for (double hz : kOpenLadderHz) {
    const double duration = k == 1 ? (ladder ? kNominalShare * seconds : seconds)
                                   : kRungJobsPerSecond * seconds / hz;
    st->ladder.push_back(
        make_arrivals(hz, duration, kOpenTemplates, 1, mix(args.seed, k++), &version));
    if (!ladder) break;
  }
  return st;
}

bool rung_passes(const Episode& ep) {
  const double p95 = perfbench::percentile(ep.jct_ms, 0.95);
  const bool backlog = ep.last_quarter_ms > 2.0 * ep.first_quarter_ms + 5.0;
  return p95 <= kOpenP95LimitMs && !backlog;
}

Pass run_open(OpenState& st, TraceCtx* ctx, Checker& checker) {
  Pass pass;
  const double start = now_s();
  // Saturation search: climb the fixed ladder until a rung misses the
  // p95 limit or builds a backlog; interpolate the crossing on p95.
  double max_rate = 0.0, prev_rate = 0.0, prev_p95 = 0.0;
  for (std::size_t k = 0; k < st.ladder.size(); ++k) {
    const double hz = kOpenLadderHz[k];
    Episode ep = run_episode(st.templates, st.ladder[k], {}, "o" + std::to_string(k) + "-",
                             1000000 * (k + 1), k == 0 ? ctx : nullptr, checker,
                             k == 0 && ctx != nullptr ? &pass.layers : nullptr);
    pass.tally.attempted += ep.tally.attempted;
    pass.tally.failed += ep.tally.failed;
    const double p95 = perfbench::percentile(ep.jct_ms, 0.95);
    const bool passes = rung_passes(ep);
    if (k == 0) {
      pass.jct_ms = ep.jct_ms;
      pass.slot_s = ep.slot_s;
      pass.invalid = check_lag(ep.lag_ms);
      set_gen_lag(pass.layers, ep.lag_ms);
      // Below the ladder: scale the nominal rate down to the limit.
      max_rate = hz * std::min(1.0, kOpenP95LimitMs / p95);
    }
    if (st.ladder.size() > 1) {
      std::printf("  rung %6.1f Hz: %4zu jobs, p95 %8.2f ms%s\n", hz, ep.jct_ms.size(), p95,
                  passes ? "" : "  (misses the limit)");
    }
    if (passes) {
      max_rate = hz;
      prev_rate = hz;
      prev_p95 = p95;
      continue;
    }
    if (k > 0 && std::isfinite(p95) && p95 > prev_p95) {
      const double f = std::clamp((kOpenP95LimitMs - prev_p95) / (p95 - prev_p95), 0.0, 1.0);
      max_rate = prev_rate + f * (hz - prev_rate);
    }
    break;
  }
  pass.elapsed_s = now_s() - start;
  pass.jobs_per_s = max_rate;
  return pass;
}

// ---------------------------------------------------------------------
// service-closed: the engine-tpcds jobs through a JobService.

struct ClosedState {
  std::vector<Template> templates;
  std::vector<Arrival> jobs;
};

/// Round-robin over the four queries, each job cold (a fresh
/// input_version), sized well past what a run can complete.
std::unique_ptr<ClosedState> setup_closed(const Args& args) {
  auto st = std::make_unique<ClosedState>();
  st->templates = build_templates(4, kEngineRows, kEngineOrders, args.seed);
  for (std::size_t i = 0; i < 4 * kEngineMinJobs; ++i) {
    Arrival a;
    a.tmpl = i % 4;
    a.version = i + 1;
    st->jobs.push_back(a);
  }
  return st;
}

Pass run_closed(ClosedState& st, double seconds, TraceCtx* ctx, Checker& checker) {
  Pass pass;
  ServiceConfig cfg;
  cfg.journal = true;
  cfg.closed_s = seconds;
  Episode ep = run_episode(st.templates, st.jobs, cfg, "c-", 1, ctx, checker,
                           ctx != nullptr ? &pass.layers : nullptr);
  pass.jct_ms = ep.jct_ms;
  pass.slot_s = ep.slot_s;
  pass.tally = ep.tally;
  pass.elapsed_s = ep.elapsed_s;
  pass.jobs_per_s = static_cast<double>(ep.jct_ms.size()) / ep.elapsed_s;
  return pass;
}

struct DurableState {
  std::vector<Template> templates;
  std::vector<std::vector<Arrival>> episodes;
  std::string out_dir;
};

std::unique_ptr<DurableState> setup_durable(const Args& args, double seconds) {
  auto st = std::make_unique<DurableState>();
  st->out_dir = args.out_dir;
  st->templates = build_templates(kDurableTemplates, kServiceRows, kServiceOrders, args.seed);
  std::uint64_t version = 1;
  const int n = std::max(1, static_cast<int>(std::lround(seconds / kDurableEpisodeS)));
  for (int e = 0; e < n; ++e) {
    st->episodes.push_back(make_arrivals(kDurableHz, seconds / n, kDurableTemplates,
                                         kDurableColdEvery, mix(args.seed, 50 + e), &version));
  }
  return st;
}

Pass run_durable(DurableState& st, TraceCtx* ctx, Checker& checker) {
  Pass pass;
  std::vector<double> lag;
  double done = 0;
  for (std::size_t e = 0; e < st.episodes.size(); ++e) {
    ServiceConfig cfg;
    cfg.state_dir = (fs::path(st.out_dir) / ("state-" + std::to_string(e))).string();
    cfg.journal = true;
    Episode ep = run_episode(st.templates, st.episodes[e], cfg, "d" + std::to_string(e) + "-",
                             1000000 * (e + 1), ctx, checker,
                             ctx != nullptr && e == 0 ? &pass.layers : nullptr);
    pass.jct_ms.insert(pass.jct_ms.end(), ep.jct_ms.begin(), ep.jct_ms.end());
    pass.slot_s.insert(pass.slot_s.end(), ep.slot_s.begin(), ep.slot_s.end());
    lag.insert(lag.end(), ep.lag_ms.begin(), ep.lag_ms.end());
    pass.tally.attempted += ep.tally.attempted;
    pass.tally.failed += ep.tally.failed;
    pass.elapsed_s += ep.elapsed_s;
    done += static_cast<double>(ep.tally.attempted - ep.tally.failed);
    std::printf("  episode %zu: %4zu jobs, p50 %7.2f ms, p95 %7.2f ms, submit p95 %6.2f ms\n", e,
                ep.jct_ms.size(), perfbench::percentile(ep.jct_ms, 0.5),
                perfbench::percentile(ep.jct_ms, 0.95), perfbench::percentile(ep.submit_ms, 0.95));
  }
  pass.jobs_per_s = pass.elapsed_s > 0 ? done / pass.elapsed_s : 0.0;
  pass.invalid = check_lag(lag);
  set_gen_lag(pass.layers, lag);
  return pass;
}

// ---------------------------------------------------------------------
// paper-sim: paper-scale plan quality and planning time (Fig. 8a,
// Table 1). Each job plans one query on a testbed configuration with
// DittoScheduler and plays it on the simulator.

struct SimQuery {
  workload::QueryId id;
  JobDag truth;
  JobDag fitted;
};

struct SimState {
  std::vector<SimQuery> queries;
  std::vector<cluster::Cluster> testbeds;  ///< [0] = Zipf-0.9 (Fig. 8a)
  double model_build_ms = 0.0;
};

std::unique_ptr<SimState> setup_sim() {
  auto st = std::make_unique<SimState>();
  const storage::StorageModel s3 = storage::s3_model();
  workload::PhysicsParams physics;
  physics.store = s3;
  for (workload::QueryId q : workload::paper_queries()) {
    SimQuery sq{q, workload::build_query(q, 1000, physics), {}};
    sq.fitted = sq.truth;
    // One fixed profile per query, as the paper fits each model once;
    // the workload seed varies only the simulated runs.
    auto simulator = std::make_shared<sim::JobSimulator>(sq.truth, s3);
    Profiler profiler(sq.fitted, sim::make_sim_stage_runner(simulator));
    auto report = profiler.profile_all();
    if (!report.ok()) {
      std::fprintf(stderr, "profile: %s\n", report.status().to_string().c_str());
      std::exit(1);
    }
    st->model_build_ms += report->model_build_seconds * 1e3;
    st->queries.push_back(std::move(sq));
  }
  // Fig. 8(c)'s slot distributions, then Fig. 8(b)'s and Table 1's usages.
  for (const auto& spec : {cluster::zipf_0_9(), cluster::norm_1_0(), cluster::norm_0_8(),
                           cluster::zipf_0_99(), cluster::uniform_usage(0.25),
                           cluster::uniform_usage(0.5), cluster::uniform_usage(0.75),
                           cluster::uniform_usage(1.0)}) {
    st->testbeds.push_back(cluster::Cluster::paper_testbed(spec));
  }
  return st;
}

Pass run_sim(SimState& st, double seconds, std::uint64_t seed, TraceCtx* ctx) {
  Pass pass;
  const storage::StorageModel s3 = storage::s3_model();
  scheduler::DittoScheduler sched;
  std::vector<double> plan_us, sim_ms, dop_total, groups, pred_err, round_ratio;
  const std::uint64_t reference_sum = perfbench::reference_kernel();
  double fig8_jct = 0, fig8_cost = 0;
  int fig8_runs = 0;
  const double start = now_s();
  const double deadline = start + seconds;
  std::uint64_t round = 0, job_id = 0;
  while (now_s() < deadline) {
    ++round;
    const double round_start = now_s();
    for (std::size_t b = 0; b < st.testbeds.size(); ++b) {
      for (const SimQuery& q : st.queries) {
        ++job_id;
        const double t0 = now_s();
        auto plan = sched.schedule(q.fitted, st.testbeds[b], Objective::kJct, s3);
        const double t1 = now_s();
        bool ok = plan.ok() && plan->placement.validate(q.truth, st.testbeds[b]).is_ok();
        double jct = kMissing;
        if (ok) {
          sim::SimOptions opts;
          opts.seed = mix(seed, round * 1000 + job_id);
          sim::JobSimulator simulator(q.truth, s3, opts);
          const sim::SimResult r = simulator.run(plan->placement);
          const double t2 = now_s();
          ok = r.jct > 0 && std::isfinite(r.jct);
          jct = r.jct;
          plan_us.push_back((t1 - t0) * 1e6);
          sim_ms.push_back((t2 - t1) * 1e3);
          dop_total.push_back(plan->placement.total_slots_used());
          groups.push_back(plan_groups(plan->placement));
          pred_err.push_back(std::abs(plan->predicted.jct - r.jct) / r.jct);
          pass.slot_s.push_back(plan->placement.total_slots_used() * r.jct);
          if (b == 0) {
            fig8_jct += r.jct;
            fig8_cost += r.cost.total();
            ++fig8_runs;
          }
          if (ctx != nullptr) {
            ctx->spans.add("scheduler", "schedule", job_id, t0, t1);
            ctx->spans.add("sim", "JobSimulator::run", job_id, t1, t2);
          }
        }
        pass.tally.add(ok);
        pass.jct_ms.push_back(ok ? jct * 1e3 : kMissing);
      }
    }
    // Each round is timed against the reference kernel run right after
    // it, so the rate below follows the program, not the host's speed.
    const double round_end = now_s();
    if (perfbench::reference_kernel() != reference_sum) pass.invalid = "reference kernel";
    round_ratio.push_back((round_end - round_start) / (now_s() - round_end));
  }
  pass.elapsed_s = now_s() - start;
  // Jobs per second on a host that runs the reference kernel in
  // kReferenceKernelS, from the median round.
  const double jobs_per_round = static_cast<double>(st.testbeds.size() * st.queries.size());
  pass.jobs_per_s =
      jobs_per_round / (perfbench::percentile(round_ratio, 0.5) * kReferenceKernelS);
  if (ctx != nullptr) {
    perfbench::Report& r = pass.layers;
    r.set("scheduler.plan_us", perfbench::percentile(plan_us, 0.5), "us");
    r.set("scheduler.dop_total", perfbench::mean(dop_total), "count");
    r.set("scheduler.groups", perfbench::mean(groups), "count");
    r.set("timemodel.pred_err_frac", perfbench::percentile(pred_err, 0.5), "ratio");
    r.set("timemodel.model_build_ms", st.model_build_ms, "ms");
    r.set("sim.run_ms", perfbench::mean(sim_ms), "ms");
    // Fig. 8(a): the four queries on Zipf-0.9, summed, mean over rounds.
    const double rounds = fig8_runs > 0 ? fig8_runs / 4.0 : 1.0;
    r.set("sim.jct_s", fig8_jct / rounds, "s");
    r.set("sim.cost_gbs", fig8_cost / rounds, "GB-s");
  }
  return pass;
}

// ---------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload engine-tpcds|service-closed|service-open|"
               "serve-durable|paper-sim --seed N --seconds S --trace 0|1 [--out-dir DIR] [--corrupt-job K]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      if (!a->trace && std::strcmp(v, "0") != 0) return false;
    } else if (flag == "--out-dir") {
      a->out_dir = v;
    } else if (flag == "--corrupt-job") {
      a->corrupt_job = std::strtol(v, &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  const std::string& w = args.workload;
  if (w != "engine-tpcds" && w != "service-closed" && w != "service-open" &&
      w != "serve-durable" && w != "paper-sim") {
    return usage();
  }
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);

  // A traced run measures an untraced pass and a traced pass, each over
  // half the time, so the tracing overhead is measured too.
  const double pass_s = args.trace ? args.seconds / 2 : args.seconds;
  const bool ladder = !args.trace;

  std::unique_ptr<EngineState> engine_st;
  std::unique_ptr<ClosedState> closed_st;
  std::unique_ptr<OpenState> open_st;
  std::unique_ptr<DurableState> durable_st;
  std::unique_ptr<SimState> sim_st;
  std::vector<double> setup_s;
  // At least kSetupRepeats setups; a cheap setup repeats for longer, so
  // its median does not rest on a handful of millisecond readings.
  const double setup_start = now_s();
  for (int i = 0; i < kSetupRepeats ||
                  (i < kSetupMaxRepeats && now_s() - setup_start < kSetupMinSeconds);
       ++i) {
    engine_st.reset();
    closed_st.reset();
    open_st.reset();
    durable_st.reset();
    sim_st.reset();
    const double t0 = now_s();
    if (w == "engine-tpcds") engine_st = setup_engine(args);
    if (w == "service-closed") closed_st = setup_closed(args);
    if (w == "service-open") open_st = setup_open(args, pass_s, ladder);
    if (w == "serve-durable") durable_st = setup_durable(args, pass_s);
    if (w == "paper-sim") sim_st = setup_sim();
    setup_s.push_back(now_s() - t0);
  }

  Checker checker(args.corrupt_job);
  auto run_pass = [&](TraceCtx* ctx) {
    if (w == "engine-tpcds") return run_engine(*engine_st, pass_s, ctx, checker);
    if (w == "service-closed") return run_closed(*closed_st, pass_s, ctx, checker);
    if (w == "service-open") return run_open(*open_st, ctx, checker);
    if (w == "serve-durable") return run_durable(*durable_st, ctx, checker);
    return run_sim(*sim_st, pass_s, args.seed, ctx);
  };

  Pass untraced = run_pass(nullptr);
  perfbench::Tally tally = untraced.tally;
  std::string invalid = untraced.invalid;

  perfbench::Report e2e;
  e2e.set("setup_s", perfbench::percentile(setup_s, 0.5), "s");
  e2e.set("jct_p50_ms", perfbench::percentile(untraced.jct_ms, 0.5), "ms");
  e2e.set("jct_p95_ms", perfbench::percentile(untraced.jct_ms, 0.95), "ms");
  e2e.set("jobs_per_s", untraced.jobs_per_s, "1/s");
  e2e.set("slot_s_per_run", perfbench::mean(untraced.slot_s), "slot-s");
  e2e.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

  std::printf("workload %s seed %llu: %zu jobs in %.2f s (p95 rests on %zu samples beyond it)\n",
              w.c_str(), static_cast<unsigned long long>(args.seed), untraced.jct_ms.size(),
              untraced.elapsed_s, perfbench::samples_beyond(untraced.jct_ms.size(), 0.95));
  std::printf("end-to-end%s:\n", args.trace ? " (untraced pass)" : "");
  e2e.print_text(stdout);

  perfbench::Report layers;
  if (args.trace) {
    TraceCtx ctx;
    Pass traced = run_pass(&ctx);
    tally.attempted += traced.tally.attempted;
    tally.failed += traced.tally.failed;
    if (invalid.empty()) invalid = traced.invalid;
    // The traced pass's values over zero defaults, in the fixed order.
    for (const auto& [name, unit] : per_layer_metrics()) layers.set(name, 0.0, unit);
    layers.overlay(traced.layers);
    const double p50_u = perfbench::percentile(untraced.jct_ms, 0.5);
    const double p50_t = perfbench::percentile(traced.jct_ms, 0.5);
    layers.set("obs.trace_overhead_frac", p50_u > 0 ? p50_t / p50_u - 1.0 : 0.0, "ratio");
    layers.set("obs.spans", static_cast<double>(ctx.spans.size()), "count");
    const std::string path =
        (fs::path(args.out_dir) / ("trace-" + w + "-" + std::to_string(args.seed) + ".json"))
            .string();
    if (!ctx.spans.write_chrome_json(path)) {
      std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\n", ctx.spans.size(), path.c_str());
    std::printf("per-layer (traced pass):\n");
    layers.print_text(stdout);
  }

  std::printf("failed_frac %.6f ratio (%zu of %zu attempted)\n", tally.failed_frac(),
              tally.failed, tally.attempted);
  if (!invalid.empty()) {
    std::fprintf(stderr, "run invalid: %s\n", invalid.c_str());
    return 3;
  }
  const bool correct = tally.failed == 0;
  std::printf("%s\n", (args.trace ? layers : e2e).json(correct, tally.attempted, tally.failed)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
