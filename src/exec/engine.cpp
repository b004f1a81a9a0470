#include "exec/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <iterator>
#include <optional>
#include <set>
#include <thread>

#include "common/stopwatch.h"
#include "dag/dag_algorithms.h"
#include "exec/kernels.h"
#include "exec/partition.h"
#include "exec/serde.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ditto::exec {

namespace {

void note_resilience(const char* what, std::string detail) {
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter(std::string("resilience.") + what).add();
  obs::TraceCollector& tc = obs::TraceCollector::global();
  if (tc.enabled()) {
    obs::TraceArgs args;
    args.emplace_back("detail", std::move(detail));
    tc.instant("resilience", what, tc.now_us(), -1, 0, std::move(args));
  }
}

std::string task_label(const JobDag& dag, StageId s, TaskId t) {
  return dag.stage(s).name() + "/" + std::to_string(t);
}

/// Timings and volumes of one attempt, for monitor/trace reporting.
struct TaskIo {
  double t_start = 0.0;
  double t_gathered = 0.0;
  double t_computed = 0.0;
  double t_end = 0.0;
  Bytes bytes_in = 0;
  Bytes bytes_out = 0;
  std::size_t rows_out = 0;
  KernelSeconds kernels;  ///< operator-kernel time inside the stage fn
};

/// Per-task bookkeeping of one stage in a running group. `won` is the
/// first-successful-attempt gate: exactly one attempt records to the
/// monitor and contributes a completed duration.
struct TaskSlot {
  std::atomic<bool> won{false};
  std::atomic<bool> spec_launched{false};
  /// Attempt chains currently submitted or running for this slot. The
  /// last chain to leave an unwon slot of an overlap group fails the
  /// run on the spot (run_attempt_chain).
  std::atomic<int> inflight{0};
  double launch = 0.0;  ///< run-clock submit time of the original chain

  /// Keeps the first failure of a chain that ended without winning. The
  /// original and a speculative duplicate can both write it.
  void record_failure(const Status& st) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failure_.is_ok()) failure_ = st;
  }
  Status failure() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failure_;
  }

 private:
  mutable std::mutex mu_;
  Status failure_;
};

/// One stage of a running group (a singleton group is exactly one
/// classic wave). Its trace span closes when the group ends.
struct StageWave {
  StageWave(const JobDag& dag, StageId stage, int n, double launch, bool in_overlap_group)
      : s(stage), dop(n), launch_time(launch), overlapped(in_overlap_group), slots(n),
        span("engine.stage", dag.stage(stage).name().c_str(), -1,
             static_cast<std::int64_t>(stage)) {
    durations.reserve(n);
    span.arg("dop", std::to_string(n));
  }

  const StageId s;
  const int dop;
  const double launch_time;
  const bool overlapped;  ///< shares its group with other stages
  std::vector<TaskSlot> slots;
  obs::ScopedSpan span;

  std::mutex mu;                  ///< guards durations and done_time
  std::vector<double> durations;  ///< run times of the winning attempts
  double done_time = 0.0;         ///< latest end among the winning attempts
};

/// One submitted chain of attempts for a slot: the original chain runs
/// attempts [0, max_task_attempts), a speculative duplicate the single
/// attempt [max, max + 1), an index the injector's attempt-0 faults
/// never hit.
struct AttemptChain {
  int first = 0;
  int end = 0;
  ServerId server = kNoServer;
  double launch = 0.0;  ///< run-clock time the chain was submitted

  bool speculative() const { return first > 0; }
};

/// The run failure for a slot no attempt won: the first error a chain
/// of it ended with, or a generic one when none was recorded.
Status slot_failure(const JobDag& dag, StageId s, int t, const TaskSlot& slot) {
  Status st = slot.failure();
  if (!st.is_ok()) return st;
  return Status::internal("task " + task_label(dag, s, static_cast<TaskId>(t)) +
                          " failed every attempt");
}

/// The process-wide pure-compute pool: min(hw, 8) workers built on first
/// use, or none on a single-core host. Every run and every exchange
/// shares it. That is deadlock-free because it only ever runs leaf work
/// (run_chunked bodies, which never wait on the pool from its own
/// workers), never a task body that could block on another task.
/// Capture-frame writes run here too and may outlive a failed run, so
/// the trace and metrics globals they report to are built first and
/// destroyed after the pool.
ThreadPool* shared_compute_pool() {
  static const std::unique_ptr<ThreadPool> pool = []() -> std::unique_ptr<ThreadPool> {
    (void)obs::TraceCollector::global();
    (void)obs::MetricsRegistry::global();
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2) return nullptr;
    return std::make_unique<ThreadPool>(std::min<unsigned>(hw, 8));
  }();
  return pool.get();
}

using Exchanges = std::map<std::pair<StageId, StageId>, std::unique_ptr<Exchange>>;

/// One exchange per DAG edge, namespaced so concurrent jobs sharing an
/// object store cannot collide on deterministic keys. Remote channels
/// retry transient storage failures under the resilience policy's
/// storage RetryPolicy.
Exchanges make_exchanges(const JobDag& dag, const cluster::PlacementPlan& plan,
                         const std::map<StageId, StageBinding>& bindings,
                         storage::ObjectStore& store, const EngineOptions& opt) {
  const std::string ns = opt.exchange_prefix.empty() ? dag.name() : opt.exchange_prefix;
  Exchanges exchanges;
  for (const Edge& e : dag.edges()) {
    exchanges.emplace(
        std::make_pair(e.src, e.dst),
        std::make_unique<Exchange>(
            e.exchange, bindings.at(e.src).key_for(e.dst), plan.task_server[e.src],
            plan.task_server[e.dst], store,
            ns + "/e" + std::to_string(e.src) + "_" + std::to_string(e.dst),
            &opt.resilience.storage, shared_compute_pool()));
  }
  return exchanges;
}

/// Everything the phases and the attempt closures share for one run()
/// call.
struct RunState {
  RunState(const JobDag& d, const cluster::PlacementPlan& pp, const RunPlan& p,
           const EngineOptions& o, const std::map<StageId, StageBinding>& b,
           cluster::RuntimeMonitor* m, storage::ObjectStore& store)
      : dag(&d), placement(&pp), plan(&p), opt(&o), bindings(&b), monitor(m),
        max_attempts(std::max(1, o.resilience.max_task_attempts)),
        chunk_rows(std::max<std::size_t>(1, o.chunk_rows)),
        exchanges(make_exchanges(d, pp, b, store, o)),
        task_server(pp.task_server), keep(d.num_stages(), 0), framed(d.num_stages(), 0) {
    for (StageId s = 0; s < d.num_stages(); ++s) keep[s] = d.children(s).empty() ? 1 : 0;
    for (const StageId s : o.capture_stages) {
      if (s < keep.size()) keep[s] = 1;
    }
    if (o.pools == nullptr) lease.emplace(PoolPark::global().checkout(p.pool_widths));
    clock.reset();
  }

  const JobDag* dag;
  const cluster::PlacementPlan* placement;
  const RunPlan* plan;
  const EngineOptions* opt;
  const std::map<StageId, StageBinding>* bindings;
  cluster::RuntimeMonitor* monitor;
  const int max_attempts;
  const std::size_t chunk_rows;
  Exchanges exchanges;
  Stopwatch clock;

  /// Pure-compute pool granted to stage fns (task_compute_pool()): the
  /// process-wide shared_compute_pool() the exchanges also use — never a
  /// bounded server pool, so operator kernels can block on sub-work
  /// safely. Null on a single-core host (kernels then run serially).
  ThreadPool* const compute_pool = shared_compute_pool();

  /// Mutable copy of the plan's placement; server-loss recovery
  /// reroutes entries. Only the driver thread mutates it, always
  /// between groups.
  std::vector<std::vector<ServerId>> task_server;

  /// By stage: 1 = keep each task's output, because the stage is a sink
  /// or in EngineOptions::capture_stages.
  std::vector<char> keep;
  std::mutex parts_mu;
  /// Kept outputs per stage and task, shared with the views the task's
  /// children read; the first writer wins, so speculative duplicates
  /// stay safe. A captured stage's parts leave once its frame is
  /// submitted.
  std::map<StageId, std::map<TaskId, std::shared_ptr<const Table>>> parts;
  /// By stage, guarded by parts_mu: 1 once the captured stage's frame
  /// write is submitted, so a server-loss re-run keeps nothing more.
  std::vector<char> framed;
  /// Captured stages' frame writes (driver thread only). A failed run
  /// drops these futures without waiting: each write owns its parts.
  std::map<StageId, std::future<Result<storage::Payload>>> frames;

  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error;

  std::atomic<std::size_t> task_retries{0};
  std::atomic<std::size_t> spec_launched{0};
  std::atomic<std::size_t> spec_wins{0};
  std::atomic<std::size_t> tasks_rerouted{0};
  std::atomic<std::size_t> producers_recovered{0};
  std::atomic<std::size_t> servers_lost{0};

  /// Private pools checked out of the PoolPark (none with shared pools).
  /// Declared last, so the pools go back to the park, each once idle,
  /// before the state their tasks reference is destroyed.
  std::optional<PoolPark::Lease> lease;

  bool streams(StageId src, StageId dst) const {
    return plan->stream_edges.count({src, dst}) != 0;
  }

  bool cancel_requested() const {
    return opt->cancel != nullptr && opt->cancel->load(std::memory_order_acquire);
  }

  ThreadPool& pool_for(ServerId v) {
    const std::size_t idx = v == kNoServer ? 0 : static_cast<std::size_t>(v);
    return lease.has_value() ? lease->pool(idx) : opt->pools->pool(idx);
  }

  void fail(const Status& st) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.is_ok()) first_error = st;
    failed.store(true);
  }
};

/// Gathers a task's inputs and runs its stage fn in one guarded block
/// (compute-pool scope, kernel timer, exception -> Status). The inputs
/// are released when it returns, before the output is published.
Result<Table> compute_task(RunState& rs, StageId s, TaskId t, int dop, TaskIo* io) {
  const StageBinding& binding = rs.bindings->at(s);
  const auto& parents = rs.dag->parents(s);
  const bool stream_in = binding.stream_fn != nullptr &&
                         std::any_of(parents.begin(), parents.end(),
                                     [&](StageId p) { return rs.streams(p, s); });

  // Streaming consumer: parent edges on the chunked protocol become
  // pull cursors, so the stage fn starts on the first arrived chunk
  // while upstream tasks are still producing. Materialized parent edges
  // (broadcast build sides, non-pipelined edges) appear as a
  // single-chunk iterator over their merged table. Gather time is
  // interleaved with compute there, so the whole fn is charged as
  // compute (t_gathered == t_start). Otherwise every parent edge is
  // gathered in full first; a streaming producer feeding a fn-only
  // stage is then read on its last chunk, in cursor order, so blocking
  // consumers (group-by builds) see the identical merged table.
  std::vector<ChunkCursor> cursors;
  std::vector<TableChunkFn> chunk_inputs;
  std::vector<Table> inputs;
  if (stream_in) {
    cursors.reserve(parents.size());
    for (StageId p : parents) {
      Exchange* ex = rs.exchanges.at({p, s}).get();
      if (rs.streams(p, s)) {
        cursors.push_back(ex->open_cursor(static_cast<std::size_t>(t)));
        ChunkCursor* cur = &cursors.back();
        chunk_inputs.push_back([cur]() -> Result<std::optional<Table>> {
          DITTO_ASSIGN_OR_RETURN(auto chunk, cur->next());
          if (!chunk.has_value()) return std::optional<Table>(std::nullopt);
          return std::optional<Table>(**chunk);
        });
      } else {
        auto done = std::make_shared<bool>(false);
        chunk_inputs.push_back([ex, t, done, io]() -> Result<std::optional<Table>> {
          if (*done) return std::optional<Table>(std::nullopt);
          *done = true;
          DITTO_ASSIGN_OR_RETURN(Table in, ex->recv_all(static_cast<std::size_t>(t)));
          io->bytes_in += in.byte_size();
          return std::optional<Table>(std::move(in));
        });
      }
    }
    io->t_gathered = io->t_start;
  } else {
    inputs.reserve(parents.size());
    for (StageId p : parents) {
      DITTO_ASSIGN_OR_RETURN(Table in, rs.exchanges.at({p, s})->recv_all(
                                           static_cast<std::size_t>(t)));
      io->bytes_in += in.byte_size();
      inputs.push_back(std::move(in));
    }
    io->t_gathered = rs.clock.elapsed_seconds();
  }

  // Operator kernels inside the stage fn pick up the pure-compute pool
  // via task_compute_pool(), and their per-kernel wall time is collected
  // for the task's profile sample.
  const char* const what = stream_in ? "stream fn" : "stage fn";
  ScopedComputePool pool_scope(rs.compute_pool);
  reset_kernel_seconds();
  std::optional<Result<Table>> out;
  try {
    out.emplace(stream_in ? binding.stream_fn(static_cast<int>(t), dop, chunk_inputs)
                          : binding.fn(static_cast<int>(t), dop, inputs));
  } catch (const std::exception& e) {
    return Status::internal(std::string(what) + " threw: " + e.what());
  } catch (...) {
    return Status::internal(std::string(what) + " threw a non-standard exception");
  }
  io->kernels = current_kernel_seconds();
  for (const ChunkCursor& cur : cursors) io->bytes_in += cur.bytes_read();
  return std::move(*out);
}

/// One clean pass of a task's body: gather -> compute -> publish. No
/// injection and no winner bookkeeping here — callers layer those. Safe
/// to run multiple times: inputs are snapshots, exchange publishes are
/// idempotent, kept outputs are first-writer-wins.
Status run_task_once(RunState& rs, StageId s, TaskId t, int dop, TaskIo* io) {
  io->t_start = rs.clock.elapsed_seconds();
  DITTO_ASSIGN_OR_RETURN(Table out, compute_task(rs, s, t, dop, io));
  io->t_computed = rs.clock.elapsed_seconds();
  io->rows_out = out.num_rows();
  io->bytes_out = out.byte_size();

  // A kept or multi-child output is shared, never copied: the kept part
  // holds it and every child publishes a borrowed whole-table view.
  const auto& children = rs.dag->children(s);
  std::shared_ptr<const Table> shared;
  if (rs.keep[s] != 0 || children.size() > 1) {
    shared = std::make_shared<const Table>(std::move(out));
  }
  if (rs.keep[s] != 0) {
    std::lock_guard<std::mutex> lock(rs.parts_mu);
    if (rs.framed[s] == 0) rs.parts[s].try_emplace(t, shared);
  }
  // Cancellation at chunk boundaries: a failing run stops a streaming
  // producer between chunks instead of finishing the stream.
  const auto tick = [&rs]() -> Status {
    return rs.failed.load(std::memory_order_acquire) ? Status::cancelled("job aborting")
                                                     : Status::ok();
  };
  for (std::size_t c = 0; c < children.size(); ++c) {
    Table payload = shared != nullptr ? range_slice(shared, 0, 1) : std::move(out);
    Exchange* ex = rs.exchanges.at({s, children[c]}).get();
    if (rs.streams(s, children[c])) {
      DITTO_RETURN_IF_ERROR(ex->send_chunked(static_cast<std::size_t>(t), std::move(payload),
                                             rs.chunk_rows, tick));
    } else {
      DITTO_RETURN_IF_ERROR(ex->send(static_cast<std::size_t>(t), std::move(payload)));
    }
  }
  io->t_end = rs.clock.elapsed_seconds();
  return Status::ok();
}

/// Reports a winning attempt to the monitor, the profile store, the
/// metrics and the trace.
void report_win(RunState& rs, const StageWave& w, TaskId t, const AttemptChain& chain,
                int attempt, const TaskIo& io) {
  const StageId s = w.s;
  if (rs.monitor != nullptr) {
    cluster::TaskRecord rec;
    rec.stage = s;
    rec.task = t;
    rec.server = chain.server;
    rec.start = io.t_start;
    rec.end = io.t_end;
    rec.read_time = io.t_gathered - io.t_start;
    rec.compute_time = io.t_computed - io.t_gathered;
    rec.write_time = io.t_end - io.t_computed;
    rec.bytes_read = io.bytes_in;
    rec.bytes_written = io.bytes_out;
    rs.monitor->record(rec);
  }

  if (rs.opt->profiles != nullptr) {
    // Queue wait and retries are the winning chain's own: a duplicate
    // reports its wait since its own launch and no retries.
    obs::TaskSample sample;
    sample.task_seconds = io.t_end - io.t_start;
    sample.compute_seconds = io.t_computed - io.t_gathered;
    sample.transport_seconds = (io.t_gathered - io.t_start) + (io.t_end - io.t_computed);
    sample.queue_seconds = std::max(0.0, io.t_start - chain.launch);
    sample.retries = attempt - chain.first;
    if (io.kernels.group_by > 0.0) sample.kernel_seconds["group_by"] = io.kernels.group_by;
    if (io.kernels.join > 0.0) sample.kernel_seconds["join"] = io.kernels.join;
    if (io.kernels.filter > 0.0) sample.kernel_seconds["filter"] = io.kernels.filter;
    rs.opt->profiles->record(rs.opt->plan_fingerprint, s, w.dop, sample);
  }

  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.counter("engine.tasks_total").add();
    mx.counter("engine.rows_out").add(io.rows_out);
    mx.counter("engine.bytes_out").add(io.bytes_out);
    mx.counter("engine.bytes_in").add(io.bytes_in);
    mx.histogram("engine.task_seconds", 0.0, 10.0, 50).observe(io.t_end - io.t_start);
    if (io.kernels.any()) {
      mx.histogram("engine.kernel_seconds", 0.0, 10.0, 50).observe(io.kernels.total());
    }
  }
  obs::TraceCollector& tc = obs::TraceCollector::global();
  if (tc.enabled()) {
    const std::string& stage_name = rs.dag->stage(s).name();
    const std::int64_t pid =
        chain.server == kNoServer ? -1 : static_cast<std::int64_t>(chain.server);
    const std::int64_t tid = static_cast<std::int64_t>(s) * 4096 + t;
    const std::uint64_t now = tc.now_us();
    const std::uint64_t dur = static_cast<std::uint64_t>((io.t_end - io.t_start) * 1e6 + 0.5);
    obs::TraceArgs args;
    args.emplace_back("stage", stage_name);
    args.emplace_back("task", std::to_string(t));
    args.emplace_back("attempt", std::to_string(attempt));
    args.emplace_back("speculative", chain.speculative() ? "1" : "0");
    args.emplace_back("rows_out", std::to_string(io.rows_out));
    args.emplace_back("bytes_in", std::to_string(io.bytes_in));
    args.emplace_back("bytes_out", std::to_string(io.bytes_out));
    args.emplace_back("gather_s", std::to_string(io.t_gathered - io.t_start));
    args.emplace_back("compute_s", std::to_string(io.t_computed - io.t_gathered));
    args.emplace_back("emit_s", std::to_string(io.t_end - io.t_computed));
    tc.span("engine.task", stage_name + "/" + std::to_string(t), now > dur ? now - dur : 0,
            dur, pid, tid, std::move(args));
  }
}

/// One attempt of a task: fault injection, body, winner election,
/// reporting. Returns the attempt's status; a loser to a faster
/// duplicate still returns OK (its duplicate publish was discarded).
Status task_attempt(RunState& rs, StageWave& w, TaskId t, const AttemptChain& chain,
                    int attempt) {
  TaskSlot& slot = w.slots[t];
  if (slot.won.load(std::memory_order_acquire)) return Status::ok();

  faults::FaultInjector* const injector = rs.opt->injector;
  if (injector != nullptr) {
    if (injector->should_crash(w.s, t, attempt)) {
      return Status::internal("injected crash: " + task_label(*rs.dag, w.s, t) + " attempt " +
                              std::to_string(attempt));
    }
    const Seconds hang = injector->hang_seconds(w.s, t, attempt);
    if (hang > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(hang));
    }
  }

  TaskIo io;
  DITTO_RETURN_IF_ERROR(run_task_once(rs, w.s, t, w.dop, &io));

  bool expected = false;
  if (!slot.won.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
    return Status::ok();  // a duplicate finished first; publishes were idempotent
  }
  if (chain.speculative()) {
    rs.spec_wins.fetch_add(1, std::memory_order_relaxed);
    note_resilience("speculative_win", task_label(*rs.dag, w.s, t));
  }
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.durations.push_back(io.t_end - io.t_start);
    w.done_time = std::max(w.done_time, io.t_end);
  }
  report_win(rs, w, t, chain, attempt, io);
  return Status::ok();
}

/// Runs a chain's attempts in order until one succeeds, the slot is
/// won, or the run fails. A chain that ends without a win leaves its
/// failure with the slot, never with the run: the slot keeps its first
/// failure, and the group driver fails the run with it only if no
/// attempt wins the slot. In an overlap group the last chain to leave
/// an unwon slot fails the run at once: the stage's streaming consumers
/// wait on chunks that will never arrive until the driver, seeing the
/// failure, cancels the exchanges.
void run_attempt_chain(RunState& rs, StageWave& w, int t, const AttemptChain& chain) {
  TaskSlot& slot = w.slots[t];
  Status last = Status::ok();
  for (int attempt = chain.first; attempt < chain.end; ++attempt) {
    if (rs.failed.load() || slot.won.load()) {
      last = Status::ok();
      break;
    }
    if (attempt > chain.first) {
      rs.task_retries.fetch_add(1, std::memory_order_relaxed);
      note_resilience("task_retry", task_label(*rs.dag, w.s, static_cast<TaskId>(t)) +
                                        " attempt " + std::to_string(attempt));
    }
    last = task_attempt(rs, w, static_cast<TaskId>(t), chain, attempt);
    if (last.is_ok()) break;
  }
  if (!last.is_ok()) slot.record_failure(last);
  const bool last_out = slot.inflight.fetch_sub(1, std::memory_order_acq_rel) == 1;
  if (last_out && w.overlapped && !slot.won.load(std::memory_order_acquire)) {
    rs.fail(slot_failure(*rs.dag, w.s, t, slot));
  }
}

/// Submits attempts [first, end) of task `t` to `server`'s pool.
void launch_chain(RunState& rs, StageWave& w, int t, ServerId server, int first, int end,
                  std::vector<std::future<Status>>& futures) {
  const AttemptChain chain{first, end, server, rs.clock.elapsed_seconds()};
  TaskSlot& slot = w.slots[t];
  if (!chain.speculative()) slot.launch = chain.launch;
  slot.inflight.fetch_add(1, std::memory_order_acq_rel);
  futures.push_back(rs.pool_for(server).submit_guarded(
      [&rs, &w, t, chain]() { run_attempt_chain(rs, w, t, chain); }));
}

/// Launches a duplicate for every slot of `w` past the task deadline or
/// straggling past the median-based speculation threshold, on the next
/// server over (if any) so a slow or hung original server cannot delay
/// the copy.
void launch_duplicates(RunState& rs, StageWave& w, double now,
                       std::vector<std::future<Status>>& futures) {
  const faults::ResiliencePolicy& policy = rs.opt->resilience;
  double median = 0.0;
  std::size_t completed = 0;
  {
    std::lock_guard<std::mutex> lock(w.mu);
    completed = w.durations.size();
    if (completed > 0) {
      std::vector<double> sorted = w.durations;
      std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
      median = sorted[sorted.size() / 2];
    }
  }
  const ServerId max_server = rs.plan->max_server;
  for (int t = 0; t < w.dop; ++t) {
    TaskSlot& slot = w.slots[t];
    if (slot.won.load() || slot.spec_launched.load()) continue;
    const double age = now - slot.launch;
    const bool past_deadline = policy.task_deadline > 0.0 && age > policy.task_deadline;
    const bool straggling =
        policy.speculation_enabled() && completed > 0 && completed * 2 >= w.slots.size() &&
        age > std::max(policy.speculation_min_wait, policy.speculation_factor * median);
    if (!past_deadline && !straggling) continue;
    slot.spec_launched.store(true);
    rs.spec_launched.fetch_add(1, std::memory_order_relaxed);
    note_resilience(past_deadline ? "deadline_duplicate" : "speculative_launch",
                    task_label(*rs.dag, w.s, static_cast<TaskId>(t)));
    const ServerId home = rs.task_server[w.s][t];
    ServerId spec_server = home;
    for (ServerId v = 1; v <= max_server; ++v) {
      const ServerId cand = (home == kNoServer ? v - 1 : home + v) % (max_server + 1);
      if (rs.opt->injector != nullptr && rs.opt->injector->server_dead(cand)) continue;
      spec_server = cand;
      break;
    }
    launch_chain(rs, w, t, spec_server, rs.max_attempts, rs.max_attempts + 1, futures);
  }
}

/// Server-loss recovery, run between groups by the driver thread:
///   1. reroute every not-yet-executed task placed on the dead server
///      to surviving servers (deterministic round-robin);
///   2. for completed producer tasks that lived on the dead server and
///      fed a pending consumer through a zero-copy channel, reset those
///      channels and re-run the producer on a survivor to re-publish.
///      Remote payloads survive in the object store untouched; the
///      re-publish overwrites them with identical bytes, and edges to
///      already-finished consumers discard the duplicate publish.
/// Channel flavours are fixed at placement time, so a rerouted pair
/// keeps its original local/remote path — a modeling simplification
/// (the payload lives in engine memory either way).
Status recover_server_loss(RunState& rs, ServerId dead, std::size_t next_idx) {
  const std::vector<StageId>& order = rs.plan->order;
  faults::FaultInjector* const injector = rs.opt->injector;
  rs.servers_lost.fetch_add(1, std::memory_order_relaxed);
  note_resilience("server_lost", "server " + std::to_string(dead));

  std::set<ServerId> alive_set;
  for (const auto& ts : rs.task_server) {
    for (ServerId v : ts) {
      if (v != kNoServer && v != dead && !(injector != nullptr && injector->server_dead(v))) {
        alive_set.insert(v);
      }
    }
  }
  if (alive_set.empty()) return Status::unavailable("no surviving servers after loss");
  const std::vector<ServerId> alive(alive_set.begin(), alive_set.end());

  const std::set<StageId> pending(order.begin() + next_idx, order.end());

  // Producers to recover, collected before rerouting mutates placement.
  // De-dup: one producer task may feed several pending edges.
  std::vector<std::pair<StageId, std::size_t>> rerun;
  for (std::size_t idx = 0; idx < next_idx; ++idx) {
    const StageId p = order[idx];
    for (std::size_t i = 0; i < rs.task_server[p].size(); ++i) {
      if (rs.task_server[p][i] != dead) continue;
      for (StageId c : rs.dag->children(p)) {
        if (pending.count(c) == 0) continue;
        if (rs.exchanges.at({p, c})->producer_has_local_channel(i)) {
          rerun.emplace_back(p, i);
          break;
        }
      }
    }
  }

  // Reroute pending tasks off the dead server.
  std::size_t rr = 0;
  for (std::size_t idx = next_idx; idx < order.size(); ++idx) {
    for (ServerId& v : rs.task_server[order[idx]]) {
      if (v == dead) {
        v = alive[rr++ % alive.size()];
        rs.tasks_rerouted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (rr > 0) note_resilience("tasks_rerouted", std::to_string(rr) + " off server " +
                                                    std::to_string(dead));

  // Re-publish lost zero-copy intermediates by re-running the producer.
  for (const auto& [p, i] : rerun) {
    for (StageId c : rs.dag->children(p)) {
      if (pending.count(c) != 0) rs.exchanges.at({p, c})->reset_producer(i);
    }
    rs.task_server[p][i] = alive[rr++ % alive.size()];
    const int dop = static_cast<int>(rs.task_server[p].size());
    Status last = Status::ok();
    for (int a = 0; a < rs.max_attempts; ++a) {
      TaskIo io;
      last = run_task_once(rs, p, static_cast<TaskId>(i), dop, &io);
      if (last.is_ok()) break;
    }
    if (!last.is_ok()) return last;
    rs.producers_recovered.fetch_add(1, std::memory_order_relaxed);
    note_resilience("producer_recovered", task_label(*rs.dag, p, static_cast<TaskId>(i)));
  }
  return Status::ok();
}

/// The boundary before a group: the cancel check, then the server-loss
/// step, which kills a doomed server, reroutes its pending tasks and
/// re-publishes completed zero-copy intermediates it held. `next_idx`,
/// the order position of the group's first stage, is the injector's
/// wave boundary, so a loss scheduled mid-group fires before the group
/// (the injector fires at the first boundary >= its configured wave).
Status enter_group(RunState& rs, const std::vector<StageId>& group, std::size_t next_idx) {
  if (rs.cancel_requested()) {
    return Status::cancelled("engine run cancelled before stage " +
                             rs.dag->stage(group.front()).name());
  }
  if (rs.opt->injector == nullptr) return Status::ok();
  const ServerId lost = rs.opt->injector->take_server_loss(static_cast<int>(next_idx));
  return lost == kNoServer ? Status::ok() : recover_server_loss(rs, lost, next_idx);
}

/// A drained group's observed stage seconds and drift. Observed time is
/// overlap-adjusted: a stage pipelined behind in-group parents is
/// charged only its tail past the last such parent's completion, the
/// same quantity an annotated (pipelined-read-skipping) time model
/// predicts. For a singleton group this is the classic wave wall time.
void record_stage_seconds(const RunState& rs,
                          const std::vector<std::unique_ptr<StageWave>>& waves,
                          std::vector<double>& stage_seconds) {
  std::map<StageId, double> done;
  for (const auto& w : waves) done.emplace(w->s, w->done_time);
  for (const auto& w : waves) {
    double start = w->launch_time;
    for (StageId p : rs.dag->parents(w->s)) {
      const auto it = done.find(p);
      if (it != done.end()) start = std::max(start, it->second);
    }
    const double observed = std::max(0.0, w->done_time - start);
    stage_seconds[w->s] = observed;
    const std::vector<double>& predicted_all = rs.opt->predicted_stage_seconds;
    if (w->s >= predicted_all.size()) continue;
    const double predicted = predicted_all[w->s];
    obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
    if (predicted > 0.0 && observed > 0.0 && mx.enabled()) {
      const double rel = std::abs(predicted - observed) / observed;
      mx.histogram("timemodel.drift", 0.0, 2.0, 20).observe(rel);
      mx.gauge("timemodel.rel_error", {{"stage", rs.dag->stage(w->s).name()}}).set(rel);
    }
  }
}

/// The run-group phase: launch every task of the group, drive the group
/// until every attempt chain has exited, then drain it. Within a group,
/// producers are submitted before their streaming consumers (topo order
/// + FIFO pools), so every task holds a thread and chunks flow producer
/// -> consumer without a wave barrier.
void run_group(RunState& rs, const std::vector<StageId>& group,
               std::vector<double>& stage_seconds) {
  const bool overlap = group.size() > 1;
  std::vector<std::unique_ptr<StageWave>> waves;
  std::vector<std::future<Status>> futures;
  for (const StageId s : group) {
    const int dop = rs.placement->dop_of(s);
    waves.push_back(std::make_unique<StageWave>(*rs.dag, s, dop, rs.clock.elapsed_seconds(),
                                                overlap));
    if (overlap) waves.back()->span.arg("overlap_group", std::to_string(rs.plan->group_of[s]));
    for (int t = 0; t < dop; ++t) {
      launch_chain(rs, *waves.back(), t, rs.task_server[s][t], 0, rs.max_attempts, futures);
    }
  }

  // Wait on the first unfinished chain's future for at most 2 ms, the
  // clock for cancellation, deadlines and speculation, which have no
  // event of their own. The group is done as soon as every submitted
  // chain has exited, not at the next tick.
  const faults::ResiliencePolicy& policy = rs.opt->resilience;
  const bool watching = policy.speculation_enabled() || policy.task_deadline > 0.0;
  bool cancelled_exchanges = false;
  std::size_t unfinished = 0;  // futures before this index are ready
  for (;;) {
    while (unfinished < futures.size() &&
           futures[unfinished].wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      ++unfinished;
    }
    if (unfinished == futures.size()) break;
    if (rs.cancel_requested() && !rs.failed.load()) {
      // Queued/retrying attempts observe rs.failed and short-circuit;
      // attempts already computing finish their current pass (their
      // publishes are idempotent and will be discarded with the job).
      rs.fail(Status::cancelled("engine run cancelled"));
    }
    if (overlap && rs.failed.load() && !cancelled_exchanges) {
      // Unblock streaming producers (tick) and consumers (cursors) so
      // the group can drain; the failed run tears down anyway.
      cancelled_exchanges = true;
      for (auto& [edge, ex] : rs.exchanges) ex->cancel();
    }
    if (watching && !rs.failed.load()) {
      const double now = rs.clock.elapsed_seconds();
      for (auto& w : waves) launch_duplicates(rs, *w, now, futures);
    }
    futures[unfinished].wait_for(std::chrono::milliseconds(2));
  }

  for (auto& f : futures) {
    const Status st = f.get();
    if (!st.is_ok()) rs.fail(st);  // a chain's bookkeeping threw
  }
  for (const auto& w : waves) {
    for (int t = 0; t < w->dop; ++t) {
      if (!w->slots[t].won.load()) rs.fail(slot_failure(*rs.dag, w->s, t, w->slots[t]));
    }
  }
  if (!rs.failed.load()) record_stage_seconds(rs, waves, stage_seconds);
}

/// Submits the frame write of every captured stage of a drained group to
/// the shared compute pool, or runs it inline on a single-core host, so
/// the write overlaps later groups. The write takes the stage's parts
/// (task order, whichever attempt won) and drops them once the frame
/// exists, leaving the tables to whichever children still read them.
void frame_captured(RunState& rs, const std::vector<StageId>& group) {
  for (const StageId s : group) {
    if (rs.keep[s] == 0 || rs.dag->children(s).empty()) continue;
    std::vector<std::shared_ptr<const Table>> parts;
    {
      std::lock_guard<std::mutex> lock(rs.parts_mu);
      rs.framed[s] = 1;
      auto node = rs.parts.extract(s);
      if (!node.empty()) {
        for (auto& [t, part] : node.mapped()) parts.push_back(std::move(part));
      }
    }
    auto write = [name = rs.dag->stage(s).name(), s,
                  parts = std::move(parts)]() mutable -> Result<storage::Payload> {
      obs::ScopedSpan span("engine", "capture_frame", -1, static_cast<std::int64_t>(s));
      std::vector<const Table*> tables;
      tables.reserve(parts.size());
      for (const auto& part : parts) tables.push_back(part.get());
      Result<storage::Payload> frame = serialize_tables(tables);
      parts.clear();
      if (frame.ok()) {
        const std::size_t bytes = (*frame)->size();
        span.arg("stage", name);
        span.arg("bytes", std::to_string(bytes));
        obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
        if (mx.enabled()) mx.counter("engine.capture_bytes").add(bytes);
      }
      return frame;
    };
    if (rs.compute_pool != nullptr) {
      rs.frames.emplace(s, rs.compute_pool->submit(std::move(write)));
    } else {
      std::promise<Result<storage::Payload>> inline_write;
      inline_write.set_value(write());
      rs.frames.emplace(s, inline_write.get_future());
    }
  }
}

/// The finish phase: cancel the exchanges on failure, or collect the
/// captured frames, merge the sink outputs and fold the counters into
/// the result.
Result<EngineResult> finish_run(RunState& rs, std::vector<double> stage_seconds) {
  if (rs.failed.load()) {
    for (auto& [edge, ex] : rs.exchanges) ex->cancel();
    std::lock_guard<std::mutex> lock(rs.error_mu);
    return rs.first_error.is_ok() ? Status::internal("engine failed") : rs.first_error;
  }

  EngineResult result;
  for (auto& [s, frame] : rs.frames) {
    DITTO_ASSIGN_OR_RETURN(storage::Payload bytes, frame.get());
    result.captured_outputs.emplace(s, std::move(bytes));
  }
  // Only sink parts are left. Each sink's parts concatenate in task
  // order (std::map iterates tasks in order), independent of which
  // attempt produced each part; a lone part comes back as a view.
  for (const auto& [s, parts] : rs.parts) {
    if (parts.size() == 1) {
      result.sink_outputs.emplace(s, range_slice(parts.begin()->second, 0, 1));
      continue;
    }
    std::vector<const Table*> tables;
    tables.reserve(parts.size());
    for (const auto& [t, table] : parts) tables.push_back(table.get());
    DITTO_ASSIGN_OR_RETURN(Table merged, concat_tables(tables));
    result.sink_outputs.emplace(s, std::move(merged));
  }

  ExchangeStats& ex = result.stats.exchange;
  for (const auto& [edge, exchange] : rs.exchanges) {
    const ExchangeStats es = exchange->stats();
    ex.zero_copy_messages += es.zero_copy_messages;
    ex.remote_messages += es.remote_messages;
    ex.remote_bytes += es.remote_bytes;
    ex.duplicate_publishes += es.duplicate_publishes;
    ex.storage_retries += es.storage_retries;
    ex.producers_reset += es.producers_reset;
    ex.chunks_published += es.chunks_published;
    ex.chunks_consumed += es.chunks_consumed;
  }
  for (StageId s = 0; s < rs.dag->num_stages(); ++s) {
    result.stats.tasks_run += static_cast<std::size_t>(rs.placement->dop_of(s));
  }
  faults::ResilienceStats& res = result.stats.resilience;
  res.task_retries = rs.task_retries.load();
  res.speculative_launched = rs.spec_launched.load();
  res.speculative_wins = rs.spec_wins.load();
  res.storage_retries = ex.storage_retries;
  res.servers_lost = rs.servers_lost.load();
  res.tasks_rerouted = rs.tasks_rerouted.load();
  res.producers_recovered = rs.producers_recovered.load();
  res.duplicate_publishes = ex.duplicate_publishes;
  result.stats.stage_seconds = std::move(stage_seconds);
  result.stats.wall_seconds = rs.clock.elapsed_seconds();
  return result;
}

}  // namespace

ServerPools::ServerPools(const std::vector<int>& widths) {
  pools_.reserve(widths.size());
  for (int w : widths) {
    pools_.push_back(std::make_unique<ThreadPool>(static_cast<std::size_t>(std::max(1, w))));
  }
}

PoolPark::Lease::~Lease() {
  for (auto& pool : pools_) park_->give_back(std::move(pool));
}

PoolPark& PoolPark::global() {
  static PoolPark park;
  return park;
}

PoolPark::Lease PoolPark::checkout(const std::vector<std::size_t>& widths) {
  std::vector<std::unique_ptr<ThreadPool>> pools(widths.size());
  {
    // Most recently parked first: its threads are the likeliest warm.
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t v = 0; v < widths.size(); ++v) {
      const std::size_t w = std::max<std::size_t>(1, widths[v]);
      for (auto it = idle_.rbegin(); it != idle_.rend(); ++it) {
        if ((*it)->size() != w) continue;
        threads_ -= w;
        pools[v] = std::move(*it);
        idle_.erase(std::next(it).base());
        break;
      }
    }
  }
  for (std::size_t v = 0; v < widths.size(); ++v) {
    if (pools[v] == nullptr) {
      pools[v] = std::make_unique<ThreadPool>(std::max<std::size_t>(1, widths[v]));
    }
  }
  return Lease(this, std::move(pools));
}

std::size_t PoolPark::parked_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_;
}

void PoolPark::give_back(std::unique_ptr<ThreadPool> pool) {
  pool->wait_idle();
  std::vector<std::unique_ptr<ThreadPool>> evicted;  // joined after unlocking
  std::lock_guard<std::mutex> lock(mu_);
  if (pool->size() > kMaxParkedThreads) {
    evicted.push_back(std::move(pool));
    return;
  }
  while (threads_ + pool->size() > kMaxParkedThreads) {
    threads_ -= idle_.front()->size();
    evicted.push_back(std::move(idle_.front()));
    idle_.pop_front();
  }
  threads_ += pool->size();
  idle_.push_back(std::move(pool));
}

MiniEngine::MiniEngine(const JobDag& dag, const cluster::PlacementPlan& plan,
                       storage::ObjectStore& store, EngineOptions options)
    : dag_(&dag), plan_(&plan), store_(&store), options_(std::move(options)) {}

Result<RunPlan> plan_run(const JobDag& dag, const cluster::PlacementPlan& plan,
                         const EngineOptions& options) {
  DITTO_RETURN_IF_ERROR(dag.validate());
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    if (plan.dop_of(s) < 1 || s >= plan.task_server.size() ||
        plan.task_server[s].size() != static_cast<std::size_t>(plan.dop[s])) {
      return Status::invalid_argument("plan not sized to DAG");
    }
  }

  RunPlan rp;
  for (const auto& ts : plan.task_server) {
    for (ServerId v : ts) {
      if (v != kNoServer) rp.max_server = std::max(rp.max_server, v);
    }
  }
  rp.order = topological_order(dag);

  // Overlap requires private pools: on a shared multi-job substrate a
  // blocked streaming consumer could starve the producer feeding it
  // through the FIFO queue.
  if (!options.stream_edges.empty() && options.pools != nullptr) {
    return Status::invalid_argument("stream_edges need private pools; shared pools run waves");
  }
  for (const auto& [src, dst] : options.stream_edges) {
    const Edge* e = dag.find_edge(src, dst);
    if (e == nullptr || e->exchange != ExchangeKind::kShuffle) {
      return Status::invalid_argument("stream edge " + std::to_string(src) + "->" +
                                      std::to_string(dst) + " is not a shuffle edge");
    }
    rp.stream_edges.insert({src, dst});
  }

  rp.group_of.assign(dag.num_stages(), 0);
  for (const StageId s : rp.order) {
    bool has_group_parent = false;
    bool all_stream = true;
    for (StageId p : dag.parents(s)) {
      if (rp.groups.empty() || rp.group_of[p] + 1 != rp.groups.size()) continue;
      has_group_parent = true;
      if (rp.stream_edges.count({p, s}) == 0) all_stream = false;
    }
    if (has_group_parent && all_stream) {
      rp.groups.back().push_back(s);
    } else {
      rp.groups.push_back({s});
    }
    rp.group_of[s] = rp.groups.size() - 1;
  }

  if (options.pools != nullptr) {
    if (static_cast<std::size_t>(rp.max_server) >= options.pools->num_servers()) {
      return Status::invalid_argument(
          "plan places tasks on server " + std::to_string(rp.max_server) + " but shared pools "
          "cover only " + std::to_string(options.pools->num_servers()) + " servers");
    }
    return rp;
  }
  // Group-sum sizing guarantees a thread for every task in the group, so
  // a streaming consumer can block on its cursor without starving the
  // producer feeding it.
  rp.pool_widths.assign(static_cast<std::size_t>(rp.max_server) + 1, 1);
  for (const auto& group : rp.groups) {
    std::vector<std::size_t> per_server(rp.pool_widths.size(), 0);
    for (const StageId s : group) {
      for (ServerId v : plan.task_server[s]) {
        if (v != kNoServer) rp.pool_widths[v] = std::max(rp.pool_widths[v], ++per_server[v]);
      }
    }
  }
  return rp;
}

Result<EngineResult> MiniEngine::run(const std::map<StageId, StageBinding>& bindings,
                                     cluster::RuntimeMonitor* monitor) {
  DITTO_ASSIGN_OR_RETURN(const RunPlan rp, plan_run(*dag_, *plan_, options_));
  for (StageId s = 0; s < dag_->num_stages(); ++s) {
    if (bindings.count(s) == 0) {
      return Status::invalid_argument("missing binding for stage " + dag_->stage(s).name());
    }
  }

  RunState rs(*dag_, *plan_, rp, options_, bindings, monitor, *store_);
  std::vector<double> stage_seconds(dag_->num_stages(), 0.0);
  std::size_t next_idx = 0;  // order position of the group's first stage
  for (const std::vector<StageId>& group : rp.groups) {
    const Status st = enter_group(rs, group, next_idx);
    if (!st.is_ok()) rs.fail(st);
    if (rs.failed.load()) break;
    run_group(rs, group, stage_seconds);
    if (!rs.failed.load()) frame_captured(rs, group);
    next_idx += group.size();
  }
  return finish_run(rs, std::move(stage_seconds));
}

}  // namespace ditto::exec
