#include "exec/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <iterator>
#include <optional>
#include <set>
#include <thread>

#include "common/stopwatch.h"
#include "dag/dag_algorithms.h"
#include "exec/kernels.h"
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

/// Per-task wave bookkeeping. `won` is the first-successful-attempt
/// gate: exactly one attempt records to the monitor and contributes a
/// completed duration.
struct TaskSlot {
  std::atomic<bool> won{false};
  std::atomic<bool> spec_launched{false};
  /// Attempts currently submitted or running for this slot. In overlap
  /// groups the driver uses `inflight == 0 && !won` to promote an
  /// exhausted slot to a run failure *mid-group*, so streaming
  /// consumers blocked on the dead producer's chunks get unblocked by
  /// the exchange cancel instead of deadlocking the group.
  std::atomic<int> inflight{0};
  double launch = 0.0;  ///< run-clock time the controller was submitted

  /// Failure that exhausted the original attempt chain. Written only by
  /// the original-attempt thread, read by the wave driver after every
  /// future has drained (future.get() orders the accesses). Promoted to
  /// the run's first_error only if no speculative duplicate won.
  Status exhausted;
};

/// The run failure for a slot no attempt won: the error that exhausted
/// its attempt chain, or a generic one when none was recorded.
Status slot_failure(const JobDag& dag, StageId s, int t, const TaskSlot& slot) {
  if (!slot.exhausted.is_ok()) return slot.exhausted;
  return Status::internal("task " + task_label(dag, s, static_cast<TaskId>(t)) +
                          " failed every attempt");
}

/// Concatenates each stage's per-task parts in task order (std::map
/// iterates tasks in order), independent of which attempt produced
/// each part.
Status merge_task_parts(std::map<StageId, std::map<TaskId, Table>>& parts_by_stage,
                        std::map<StageId, Table>& out) {
  for (auto& [s, parts] : parts_by_stage) {
    std::vector<Table> tables;
    tables.reserve(parts.size());
    for (auto& [t, table] : parts) tables.push_back(std::move(table));
    DITTO_ASSIGN_OR_RETURN(Table merged, concat_tables(std::move(tables)));
    out.emplace(s, std::move(merged));
  }
  return Status::ok();
}

/// Everything the per-attempt closures share for one run() call.
struct RunState {
  const JobDag* dag = nullptr;
  const std::map<StageId, StageBinding>* bindings = nullptr;
  cluster::RuntimeMonitor* monitor = nullptr;
  faults::FaultInjector* injector = nullptr;
  const faults::ResiliencePolicy* policy = nullptr;
  std::map<std::pair<StageId, StageId>, std::unique_ptr<Exchange>>* exchanges = nullptr;
  const Stopwatch* clock = nullptr;

  /// Mutable copy of the plan's placement; server-loss recovery
  /// reroutes entries. Only the wave driver thread mutates it, always
  /// between waves.
  std::vector<std::vector<ServerId>> task_server;

  std::mutex sink_mu;
  std::map<StageId, std::map<TaskId, Table>> sink_parts;  ///< first writer wins
  /// Captured non-sink outputs (EngineOptions::capture_stages); same
  /// first-writer-wins slots under sink_mu, so speculative duplicates
  /// stay safe.
  std::vector<char> capture;  ///< by stage; 1 = capture this stage
  std::map<StageId, std::map<TaskId, Table>> capture_parts;

  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error;

  obs::StageProfileStore* profiles = nullptr;
  std::uint64_t fingerprint = 0;

  /// Pure-compute pool granted to stage fns (task_compute_pool()): the
  /// process-wide shared_compute_pool() the exchanges also use — never a
  /// bounded server pool, so operator kernels can block on sub-work
  /// safely. Null on a single-core host (kernels then run serially).
  ThreadPool* compute_pool = nullptr;

  /// Edges executing the chunked protocol (EngineOptions::stream_edges):
  /// producers send_chunked(), consumers with a stream_fn pull via
  /// cursors. Empty when pipelining is off.
  std::set<std::pair<StageId, StageId>> stream_edges;
  std::size_t chunk_rows = 64 * 1024;

  bool streams(StageId src, StageId dst) const {
    return stream_edges.count({src, dst}) != 0;
  }

  std::atomic<std::size_t> task_retries{0};
  std::atomic<std::size_t> spec_launched{0};
  std::atomic<std::size_t> spec_wins{0};
  std::atomic<std::size_t> tasks_rerouted{0};
  std::atomic<std::size_t> producers_recovered{0};
  std::atomic<std::size_t> servers_lost{0};

  void fail(const Status& st) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.is_ok()) first_error = st;
    failed.store(true);
  }
};

/// The process-wide pure-compute pool: min(hw, 8) workers built on first
/// use, or none on a single-core host. Every run and every exchange
/// shares it. That is deadlock-free because it only ever runs leaf work
/// (run_chunked bodies, which never wait on the pool from its own
/// workers), never a task body that could block on another task.
ThreadPool* shared_compute_pool() {
  static const std::unique_ptr<ThreadPool> pool = []() -> std::unique_ptr<ThreadPool> {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2) return nullptr;
    return std::make_unique<ThreadPool>(std::min<unsigned>(hw, 8));
  }();
  return pool.get();
}

/// One clean pass of a task's body: gather -> compute -> publish. No
/// injection and no winner bookkeeping here — callers layer those. Safe
/// to run multiple times: inputs are snapshots, exchange publishes are
/// idempotent, sink slots are first-writer-wins.
Status run_task_once(RunState& rs, StageId s, TaskId t, int dop, TaskIo* io) {
  const StageBinding& binding = rs.bindings->at(s);
  io->t_start = rs.clock->elapsed_seconds();

  const auto& parents = rs.dag->parents(s);
  const bool stream_in = binding.stream_fn != nullptr &&
                         std::any_of(parents.begin(), parents.end(),
                                     [&](StageId p) { return rs.streams(p, s); });

  std::optional<Result<Table>> out;
  if (stream_in) {
    // Streaming consumer: parent edges on the chunked protocol become
    // pull cursors, so the stage fn starts on the first arrived chunk
    // while upstream tasks are still producing. Materialized parent
    // edges (broadcast build sides, non-pipelined edges) appear as a
    // single-chunk iterator over their merged table. Gather time is
    // interleaved with compute here, so the whole fn is charged as
    // compute (t_gathered == t_start).
    std::vector<ChunkCursor> cursors;
    cursors.reserve(parents.size());
    std::vector<TableChunkFn> inputs;
    inputs.reserve(parents.size());
    for (StageId p : parents) {
      Exchange* ex = rs.exchanges->at({p, s}).get();
      if (rs.streams(p, s)) {
        cursors.push_back(ex->open_cursor(static_cast<std::size_t>(t)));
        ChunkCursor* cur = &cursors.back();
        inputs.push_back([cur]() -> Result<std::optional<Table>> {
          DITTO_ASSIGN_OR_RETURN(auto chunk, cur->next());
          if (!chunk.has_value()) return std::optional<Table>(std::nullopt);
          return std::optional<Table>(**chunk);
        });
      } else {
        auto done = std::make_shared<bool>(false);
        inputs.push_back([ex, t, done, io]() -> Result<std::optional<Table>> {
          if (*done) return std::optional<Table>(std::nullopt);
          *done = true;
          DITTO_ASSIGN_OR_RETURN(Table in, ex->recv_all(static_cast<std::size_t>(t)));
          io->bytes_in += in.byte_size();
          return std::optional<Table>(std::move(in));
        });
      }
    }
    io->t_gathered = io->t_start;
    {
      ScopedComputePool pool_scope(rs.compute_pool);
      reset_kernel_seconds();
      try {
        out.emplace(binding.stream_fn(static_cast<int>(t), dop, inputs));
      } catch (const std::exception& e) {
        return Status::internal(std::string("stream fn threw: ") + e.what());
      } catch (...) {
        return Status::internal("stream fn threw a non-standard exception");
      }
      io->kernels = current_kernel_seconds();
    }
    for (const ChunkCursor& cur : cursors) io->bytes_in += cur.bytes_read();
  } else {
    // Materialized path: gather every parent edge in full, then run the
    // stage fn. Streaming producers feeding a fn-only stage fall back
    // to gather-on-last-chunk here — recv_all blocks until the stream
    // seals and concatenates the chunks in cursor order, so blocking
    // consumers (group-by builds) see the identical merged table.
    std::vector<Table> inputs;
    inputs.reserve(parents.size());
    for (StageId p : parents) {
      auto in = rs.exchanges->at({p, s})->recv_all(static_cast<std::size_t>(t));
      if (!in.ok()) return in.status();
      io->bytes_in += in.value().byte_size();
      inputs.push_back(std::move(in).value());
    }
    io->t_gathered = rs.clock->elapsed_seconds();
    {
      // Operator kernels inside the stage fn pick up the pure-compute
      // pool via task_compute_pool(), and their per-kernel wall time is
      // collected for the task's profile sample.
      ScopedComputePool pool_scope(rs.compute_pool);
      reset_kernel_seconds();
      try {
        out.emplace(binding.fn(static_cast<int>(t), dop, inputs));
      } catch (const std::exception& e) {
        return Status::internal(std::string("stage fn threw: ") + e.what());
      } catch (...) {
        return Status::internal("stage fn threw a non-standard exception");
      }
      io->kernels = current_kernel_seconds();
    }
  }
  if (!out->ok()) return out->status();
  io->t_computed = rs.clock->elapsed_seconds();
  io->rows_out = out->value().num_rows();

  const auto& children = rs.dag->children(s);
  if (children.empty()) {
    Table value = std::move(*out).value();
    io->bytes_out = value.byte_size();
    std::lock_guard<std::mutex> lock(rs.sink_mu);
    rs.sink_parts[s].try_emplace(static_cast<TaskId>(t), std::move(value));
  } else {
    io->bytes_out = out->value().byte_size();
    if (s < rs.capture.size() && rs.capture[s] != 0) {
      Table copy = out->value();
      std::lock_guard<std::mutex> lock(rs.sink_mu);
      rs.capture_parts[s].try_emplace(static_cast<TaskId>(t), std::move(copy));
    }
    // Cancellation at chunk boundaries: a failing run stops a
    // streaming producer between chunks instead of finishing the
    // stream.
    const auto tick = [&rs]() -> Status {
      return rs.failed.load(std::memory_order_acquire)
                 ? Status::cancelled("job aborting")
                 : Status::ok();
    };
    for (std::size_t c = 0; c < children.size(); ++c) {
      // The last child may take the table by move.
      Table payload = (c + 1 == children.size()) ? std::move(*out).value() : out->value();
      Exchange* ex = rs.exchanges->at({s, children[c]}).get();
      if (rs.streams(s, children[c])) {
        DITTO_RETURN_IF_ERROR(ex->send_chunked(static_cast<std::size_t>(t),
                                               std::move(payload), rs.chunk_rows, tick));
      } else {
        DITTO_RETURN_IF_ERROR(ex->send(static_cast<std::size_t>(t), std::move(payload)));
      }
    }
  }
  io->t_end = rs.clock->elapsed_seconds();
  return Status::ok();
}

/// One attempt of a wave task: fault injection, body, winner election,
/// reporting. Returns the attempt's status; a loser to a faster
/// duplicate still returns OK (its duplicate publish was discarded).
Status task_attempt(RunState& rs, StageId s, TaskId t, int dop, ServerId server, int attempt,
                    bool speculative, TaskSlot& slot, std::mutex& dur_mu,
                    std::vector<double>& durations) {
  if (slot.won.load(std::memory_order_acquire)) return Status::ok();

  if (rs.injector != nullptr) {
    if (rs.injector->should_crash(s, t, attempt)) {
      return Status::internal("injected crash: " + task_label(*rs.dag, s, t) + " attempt " +
                              std::to_string(attempt));
    }
    const Seconds hang = rs.injector->hang_seconds(s, t, attempt);
    if (hang > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(hang));
    }
  }

  TaskIo io;
  DITTO_RETURN_IF_ERROR(run_task_once(rs, s, t, dop, &io));

  bool expected = false;
  if (!slot.won.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
    return Status::ok();  // a duplicate finished first; publishes were idempotent
  }

  if (speculative) {
    rs.spec_wins.fetch_add(1, std::memory_order_relaxed);
    note_resilience("speculative_win", task_label(*rs.dag, s, t));
  }
  {
    std::lock_guard<std::mutex> lock(dur_mu);
    durations.push_back(io.t_end - io.t_start);
  }

  if (rs.monitor != nullptr) {
    cluster::TaskRecord rec;
    rec.stage = s;
    rec.task = t;
    rec.server = server;
    rec.start = io.t_start;
    rec.end = io.t_end;
    rec.read_time = io.t_gathered - io.t_start;
    rec.compute_time = io.t_computed - io.t_gathered;
    rec.write_time = io.t_end - io.t_computed;
    rec.bytes_read = io.bytes_in;
    rec.bytes_written = io.bytes_out;
    rs.monitor->record(rec);
  }

  if (rs.profiles != nullptr) {
    obs::TaskSample sample;
    sample.task_seconds = io.t_end - io.t_start;
    sample.compute_seconds = io.t_computed - io.t_gathered;
    sample.transport_seconds = (io.t_gathered - io.t_start) + (io.t_end - io.t_computed);
    sample.queue_seconds = std::max(0.0, io.t_start - slot.launch);
    sample.retries = attempt;
    if (io.kernels.group_by > 0.0) sample.kernel_seconds["group_by"] = io.kernels.group_by;
    if (io.kernels.join > 0.0) sample.kernel_seconds["join"] = io.kernels.join;
    if (io.kernels.filter > 0.0) sample.kernel_seconds["filter"] = io.kernels.filter;
    if (io.kernels.top_k > 0.0) sample.kernel_seconds["top_k"] = io.kernels.top_k;
    rs.profiles->record(rs.fingerprint, s, dop, sample);
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
    const std::int64_t pid = server == kNoServer ? -1 : static_cast<std::int64_t>(server);
    const std::int64_t tid = static_cast<std::int64_t>(s) * 4096 + t;
    const std::uint64_t now = tc.now_us();
    const std::uint64_t dur = static_cast<std::uint64_t>((io.t_end - io.t_start) * 1e6 + 0.5);
    obs::TraceArgs args;
    args.emplace_back("stage", stage_name);
    args.emplace_back("task", std::to_string(t));
    args.emplace_back("attempt", std::to_string(attempt));
    args.emplace_back("speculative", speculative ? "1" : "0");
    args.emplace_back("rows_out", std::to_string(io.rows_out));
    args.emplace_back("bytes_in", std::to_string(io.bytes_in));
    args.emplace_back("bytes_out", std::to_string(io.bytes_out));
    args.emplace_back("gather_s", std::to_string(io.t_gathered - io.t_start));
    args.emplace_back("compute_s", std::to_string(io.t_computed - io.t_gathered));
    args.emplace_back("emit_s", std::to_string(io.t_end - io.t_computed));
    tc.span("engine.task", stage_name + "/" + std::to_string(t), now > dur ? now - dur : 0,
            dur, pid, tid, std::move(args));
  }
  return Status::ok();
}

/// Server-loss recovery, run between waves by the wave driver thread:
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
Status recover_server_loss(RunState& rs, ServerId dead, const std::vector<StageId>& order,
                           std::size_t next_idx) {
  rs.servers_lost.fetch_add(1, std::memory_order_relaxed);
  note_resilience("server_lost", "server " + std::to_string(dead));

  std::set<ServerId> alive_set;
  for (const auto& ts : rs.task_server) {
    for (ServerId v : ts) {
      if (v != kNoServer && v != dead && !(rs.injector != nullptr && rs.injector->server_dead(v))) {
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
        if (rs.exchanges->at({p, c})->producer_has_local_channel(i)) {
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
      if (pending.count(c) != 0) rs.exchanges->at({p, c})->reset_producer(i);
    }
    rs.task_server[p][i] = alive[rr++ % alive.size()];
    const int dop = static_cast<int>(rs.task_server[p].size());
    Status last = Status::ok();
    const int attempts = std::max(1, rs.policy->max_task_attempts);
    for (int a = 0; a < attempts; ++a) {
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

Result<EngineResult> MiniEngine::run(const std::map<StageId, StageBinding>& bindings,
                                     cluster::RuntimeMonitor* monitor) {
  DITTO_RETURN_IF_ERROR(dag_->validate());
  for (StageId s = 0; s < dag_->num_stages(); ++s) {
    if (bindings.count(s) == 0) {
      return Status::invalid_argument("missing binding for stage " + dag_->stage(s).name());
    }
    if (plan_->dop_of(s) < 1 || plan_->task_server[s].size() != static_cast<std::size_t>(plan_->dop[s])) {
      return Status::invalid_argument("plan not sized to DAG");
    }
  }

  ServerId max_server = 0;
  for (const auto& ts : plan_->task_server) {
    for (ServerId v : ts) {
      if (v != kNoServer) max_server = std::max(max_server, v);
    }
  }

  const std::vector<StageId> order = topological_order(*dag_);

  // Pipelined shuffle (EngineOptions::stream_edges): check the
  // streaming edges, then coalesce consecutive topo-order stages
  // connected only by streaming edges into overlap groups that execute
  // together. Overlap requires private pools — on a shared multi-job
  // substrate a blocked streaming consumer could starve the producer
  // feeding it through the FIFO queue.
  if (!options_.stream_edges.empty() && options_.pools != nullptr) {
    return Status::invalid_argument("stream_edges need private pools; shared pools run waves");
  }
  std::set<std::pair<StageId, StageId>> stream_edges;
  for (const auto& [src, dst] : options_.stream_edges) {
    const Edge* e = dag_->find_edge(src, dst);
    if (e == nullptr || e->exchange != ExchangeKind::kShuffle) {
      return Status::invalid_argument("stream edge " + std::to_string(src) + "->" +
                                      std::to_string(dst) + " is not a shuffle edge");
    }
    stream_edges.insert({src, dst});
  }
  // groups[g] = contiguous run of indices into `order`. A stage joins
  // the current group iff it has a parent there and every such parent
  // connects through a streaming edge; everything else (including all
  // stages when pipelining is off) starts a fresh group, which makes a
  // singleton group exactly one classic wave.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<int> group_of(dag_->num_stages(), -1);
  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const StageId s = order[idx];
    bool join = false;
    if (!groups.empty()) {
      const int cur = static_cast<int>(groups.size()) - 1;
      bool has_cur_parent = false;
      bool all_stream = true;
      for (StageId p : dag_->parents(s)) {
        if (group_of[p] == cur) {
          has_cur_parent = true;
          if (stream_edges.count({p, s}) == 0) all_stream = false;
        }
      }
      join = has_cur_parent && all_stream;
    }
    if (join) {
      groups.back().push_back(idx);
    } else {
      groups.push_back({idx});
    }
    group_of[s] = static_cast<int>(groups.size()) - 1;
  }

  // Worker pools. Shared pools (a multi-job service's substrate) bound
  // concurrency per cluster server across jobs; otherwise this run
  // checks out private pools whose width is the maximum number of
  // tasks any single overlap group places there (a singleton group =
  // one stage, the classic wave sizing). Group-sum sizing guarantees a
  // thread for every task in the group, so a streaming consumer can
  // block on its cursor without starving the producer feeding it.
  std::vector<std::size_t> width;
  if (options_.pools != nullptr) {
    if (static_cast<std::size_t>(max_server) >= options_.pools->num_servers()) {
      return Status::invalid_argument(
          "plan places tasks on server " + std::to_string(max_server) + " but shared pools "
          "cover only " + std::to_string(options_.pools->num_servers()) + " servers");
    }
  } else {
    width.assign(max_server + 1, 1);
    for (const auto& gidx : groups) {
      std::vector<std::size_t> per_server(max_server + 1, 0);
      for (const std::size_t idx : gidx) {
        for (ServerId v : plan_->task_server[order[idx]]) {
          if (v != kNoServer) width[v] = std::max(width[v], ++per_server[v]);
        }
      }
    }
  }
  const auto cancel_requested = [this]() {
    return options_.cancel != nullptr && options_.cancel->load(std::memory_order_acquire);
  };

  // One exchange per DAG edge, namespaced so concurrent jobs sharing an
  // object store cannot collide on deterministic keys. Remote channels
  // retry transient storage failures under the resilience policy's
  // storage RetryPolicy.
  const std::string ns =
      options_.exchange_prefix.empty() ? dag_->name() : options_.exchange_prefix;
  ThreadPool* const compute_pool = shared_compute_pool();
  std::map<std::pair<StageId, StageId>, std::unique_ptr<Exchange>> exchanges;
  for (const Edge& e : dag_->edges()) {
    const std::string key = bindings.at(e.src).key_for(e.dst);
    exchanges.emplace(
        std::make_pair(e.src, e.dst),
        std::make_unique<Exchange>(e.exchange, key, plan_->task_server[e.src],
                                   plan_->task_server[e.dst], *store_,
                                   ns + "/e" + std::to_string(e.src) + "_" +
                                       std::to_string(e.dst),
                                   &options_.resilience.storage, compute_pool));
  }

  EngineResult result;
  RunState rs;
  rs.dag = dag_;
  rs.bindings = &bindings;
  rs.monitor = monitor;
  rs.injector = options_.injector;
  rs.policy = &options_.resilience;
  rs.exchanges = &exchanges;
  rs.task_server = plan_->task_server;
  rs.profiles = options_.profiles;
  rs.fingerprint = options_.plan_fingerprint;
  rs.compute_pool = compute_pool;
  rs.stream_edges = stream_edges;
  rs.chunk_rows = std::max<std::size_t>(1, options_.chunk_rows);
  rs.capture.assign(dag_->num_stages(), 0);
  for (const StageId s : options_.capture_stages) {
    if (s < rs.capture.size()) rs.capture[s] = 1;
  }

  // Declared after `rs` so the pools go back to the park (each once
  // idle) before the state their tasks reference is destroyed.
  std::optional<PoolPark::Lease> lease;
  if (options_.pools == nullptr) lease.emplace(PoolPark::global().checkout(width));
  const auto pool_for = [&](ServerId v) -> ThreadPool& {
    const std::size_t idx = v == kNoServer ? 0 : static_cast<std::size_t>(v);
    return lease.has_value() ? lease->pool(idx) : options_.pools->pool(idx);
  };
  Stopwatch clock;
  rs.clock = &clock;

  const faults::ResiliencePolicy& policy = options_.resilience;
  const int max_attempts = std::max(1, policy.max_task_attempts);
  result.stats.stage_seconds.assign(dag_->num_stages(), 0.0);

  /// Per-stage bookkeeping of one overlap group (a singleton group is
  /// exactly one classic wave).
  struct StageWave {
    StageId s = kNoStage;
    int dop = 0;
    double launch_time = 0.0;
    double done_time = -1.0;  ///< set when every slot has a winner
    std::vector<TaskSlot> slots;
    std::mutex dur_mu;
    std::vector<double> durations;
    explicit StageWave(int n) : slots(n) { durations.reserve(n); }
  };

  // Overlap groups in topological order. Within a group, producers are
  // submitted before their streaming consumers (topo order + FIFO
  // pools), so every task in the group holds a thread and chunks flow
  // producer -> consumer without a wave barrier.
  for (std::size_t gi = 0; gi < groups.size() && !rs.failed.load(); ++gi) {
    const std::vector<std::size_t>& gidx = groups[gi];

    if (cancel_requested()) {
      rs.fail(Status::cancelled("engine run cancelled before stage " +
                                dag_->stage(order[gidx.front()]).name()));
      break;
    }

    // Server-loss boundary: kill the doomed server, reroute its pending
    // tasks, and re-publish completed zero-copy intermediates it held.
    // The boundary index is the order position of the group's first
    // stage, so a loss scheduled mid-group fires before the group (the
    // injector fires at the first boundary >= its configured wave).
    if (rs.injector != nullptr) {
      const ServerId lost = rs.injector->take_server_loss(static_cast<int>(gidx.front()));
      if (lost != kNoServer) {
        const Status st = recover_server_loss(rs, lost, order, gidx.front());
        if (!st.is_ok()) {
          for (auto& [edge, ex] : exchanges) ex->cancel();
          return st;
        }
      }
    }

    std::vector<std::unique_ptr<StageWave>> waves;
    waves.reserve(gidx.size());
    std::vector<std::future<Status>> futures;
    // ScopedSpan is pinned (no moves); deque emplace never relocates.
    std::deque<obs::ScopedSpan> spans;  // one per stage, closed at group end

    for (const std::size_t idx : gidx) {
      const StageId s = order[idx];
      const int dop = plan_->dop_of(s);
      spans.emplace_back("engine.stage", dag_->stage(s).name().c_str(), -1,
                         static_cast<std::int64_t>(s));
      spans.back().arg("dop", std::to_string(dop));
      if (gidx.size() > 1) spans.back().arg("overlap_group", std::to_string(gi));

      auto wave = std::make_unique<StageWave>(dop);
      wave->s = s;
      wave->dop = dop;
      wave->launch_time = clock.elapsed_seconds();
      StageWave& w = *wave;
      waves.push_back(std::move(wave));

      for (int t = 0; t < dop; ++t) {
        const ServerId server = rs.task_server[s][t];
        ThreadPool& pool = pool_for(server);
        TaskSlot& slot = w.slots[t];
        slot.launch = clock.elapsed_seconds();
        slot.inflight.fetch_add(1, std::memory_order_acq_rel);
        futures.push_back(pool.submit_guarded([&rs, &w, &slot, s, t, dop, server,
                                               max_attempts]() -> Status {
          Status last = Status::ok();
          for (int attempt = 0; attempt < max_attempts; ++attempt) {
            if (rs.failed.load() || slot.won.load()) {
              slot.inflight.fetch_sub(1, std::memory_order_acq_rel);
              return Status::ok();
            }
            if (attempt > 0) {
              rs.task_retries.fetch_add(1, std::memory_order_relaxed);
              note_resilience("task_retry", task_label(*rs.dag, s, static_cast<TaskId>(t)) +
                                                " attempt " + std::to_string(attempt));
            }
            last = task_attempt(rs, s, static_cast<TaskId>(t), dop, server, attempt,
                                /*speculative=*/false, slot, w.dur_mu, w.durations);
            if (last.is_ok()) {
              slot.inflight.fetch_sub(1, std::memory_order_acq_rel);
              return Status::ok();
            }
          }
          // Out of attempts. A speculative duplicate may still win the
          // slot; record the failure and let the post-wave check (or
          // the overlap-group dead-slot scan) decide.
          slot.exhausted = last;
          slot.inflight.fetch_sub(1, std::memory_order_acq_rel);
          return Status::ok();
        }));
      }
    }

    // Drive the group: wait on the first unfinished attempt's future
    // (for at most 2 ms, the clock for cancellation, deadlines and
    // speculation, which have no event of their own), launching
    // speculative duplicates for stragglers past the deadline or the
    // median-based speculation threshold (per stage, as in classic
    // waves). The group is done as soon as every submitted attempt has
    // exited, not at the next tick.
    const bool watching =
        policy.speculation_enabled() || policy.task_deadline > 0.0;
    bool cancelled_exchanges = false;
    std::size_t unfinished = 0;  // futures before this index are ready
    for (;;) {
      while (unfinished < futures.size() &&
             futures[unfinished].wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        ++unfinished;
      }
      if (unfinished == futures.size()) break;
      if (cancel_requested() && !rs.failed.load()) {
        // Queued/retrying attempts observe rs.failed and short-circuit;
        // attempts already computing finish their current pass (their
        // publishes are idempotent and will be discarded with the job).
        rs.fail(Status::cancelled("engine run cancelled"));
      }
      const double now = clock.elapsed_seconds();
      for (auto& wptr : waves) {
        StageWave& w = *wptr;
        if (w.done_time < 0.0 &&
            std::all_of(w.slots.begin(), w.slots.end(),
                        [](const TaskSlot& sl) { return sl.won.load(); })) {
          w.done_time = now;
        }
      }
      if (gidx.size() > 1 && !rs.failed.load()) {
        // Dead-slot scan: in an overlap group a task that exhausted
        // every attempt (with no duplicate left in flight) must fail
        // the run NOW — its streaming consumers are blocked on chunks
        // that will never arrive, so waiting for all futures would
        // deadlock. (Classic waves keep the post-drain check, which
        // also lets a later-launched duplicate rescue the slot.)
        for (auto& wptr : waves) {
          StageWave& w = *wptr;
          for (int t = 0; t < w.dop && !rs.failed.load(); ++t) {
            TaskSlot& slot = w.slots[t];
            if (!slot.won.load(std::memory_order_acquire) &&
                slot.inflight.load(std::memory_order_acquire) == 0) {
              rs.fail(slot_failure(*dag_, w.s, t, slot));
            }
          }
        }
      }
      if (gidx.size() > 1 && rs.failed.load() && !cancelled_exchanges) {
        // Unblock streaming producers (tick) and consumers (cursors)
        // so the group can drain; the failed run tears down anyway.
        cancelled_exchanges = true;
        for (auto& [edge, ex] : exchanges) ex->cancel();
      }
      if (watching && !rs.failed.load()) {
        for (auto& wptr : waves) {
          StageWave& w = *wptr;
          const StageId s = w.s;
          double median = 0.0;
          std::size_t completed = 0;
          {
            std::lock_guard<std::mutex> lock(w.dur_mu);
            completed = w.durations.size();
            if (completed > 0) {
              std::vector<double> sorted = w.durations;
              std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                               sorted.end());
              median = sorted[sorted.size() / 2];
            }
          }
          for (int t = 0; t < w.dop; ++t) {
            TaskSlot& slot = w.slots[t];
            if (slot.won.load() || slot.spec_launched.load()) continue;
            const double age = now - slot.launch;
            const bool past_deadline =
                policy.task_deadline > 0.0 && age > policy.task_deadline;
            const bool straggling =
                policy.speculation_enabled() && completed > 0 &&
                completed * 2 >= w.slots.size() &&
                age > std::max(policy.speculation_min_wait, policy.speculation_factor * median);
            if (!past_deadline && !straggling) continue;
            slot.spec_launched.store(true);
            rs.spec_launched.fetch_add(1, std::memory_order_relaxed);
            note_resilience(past_deadline ? "deadline_duplicate" : "speculative_launch",
                            task_label(*dag_, s, static_cast<TaskId>(t)));
            // Duplicate on the next server over (if any), so a slow or
            // hung slot on the original server cannot delay the copy.
            const ServerId home = rs.task_server[s][t];
            ServerId spec_server = home;
            for (ServerId v = 1; v <= max_server; ++v) {
              const ServerId cand =
                  (home == kNoServer ? v - 1 : home + v) % (max_server + 1);
              if (rs.injector != nullptr && rs.injector->server_dead(cand)) continue;
              spec_server = cand;
              break;
            }
            ThreadPool& pool = pool_for(spec_server);
            const int dop = w.dop;
            slot.inflight.fetch_add(1, std::memory_order_acq_rel);
            futures.push_back(pool.submit_guarded(
                [&rs, &w, &slot, s, t, dop, spec_server, max_attempts]() -> Status {
                  // Attempt index >= max_attempts: injected attempt-0
                  // faults never re-fire on the duplicate.
                  const Status st =
                      task_attempt(rs, s, static_cast<TaskId>(t), dop, spec_server,
                                   max_attempts, /*speculative=*/true, slot, w.dur_mu,
                                   w.durations);
                  slot.inflight.fetch_sub(1, std::memory_order_acq_rel);
                  return st;
                }));
          }
        }
      }
      futures[unfinished].wait_for(std::chrono::milliseconds(2));
    }

    for (auto& f : futures) {
      const Status st = f.get();
      if (!st.is_ok()) rs.fail(st);  // thrown-through-pool defence
    }
    const double drain_time = clock.elapsed_seconds();
    for (auto& wptr : waves) {
      StageWave& w = *wptr;
      bool all_won = true;
      for (int t = 0; t < w.dop; ++t) {
        if (!w.slots[t].won.load()) {
          all_won = false;
          rs.fail(slot_failure(*dag_, w.s, t, w.slots[t]));
        }
      }
      if (all_won && w.done_time < 0.0) w.done_time = drain_time;
    }

    // Per-stage drift: observed time is overlap-adjusted — a stage
    // pipelined behind in-group parents is charged only its tail past
    // the last such parent's completion, the same quantity an
    // annotated (pipelined-read-skipping) time model predicts. For a
    // singleton group this reduces to the classic wave wall time.
    if (!rs.failed.load()) {
      for (auto& wptr : waves) {
        StageWave& w = *wptr;
        double start = w.launch_time;
        for (StageId p : dag_->parents(w.s)) {
          if (group_of[p] != static_cast<int>(gi)) continue;
          for (const auto& pw : waves) {
            if (pw->s == p && pw->done_time >= 0.0) start = std::max(start, pw->done_time);
          }
        }
        const double observed = std::max(0.0, w.done_time - start);
        result.stats.stage_seconds[w.s] = observed;
        if (w.s < options_.predicted_stage_seconds.size()) {
          const double predicted = options_.predicted_stage_seconds[w.s];
          obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
          if (predicted > 0.0 && observed > 0.0 && mx.enabled()) {
            const double rel = std::abs(predicted - observed) / observed;
            mx.histogram("timemodel.drift", 0.0, 2.0, 20).observe(rel);
            mx.gauge("timemodel.rel_error", {{"stage", dag_->stage(w.s).name()}}).set(rel);
          }
        }
      }
    }
  }

  if (rs.failed.load()) {
    for (auto& [edge, ex] : exchanges) ex->cancel();
    std::lock_guard<std::mutex> lock(rs.error_mu);
    return rs.first_error.is_ok() ? Status::internal("engine failed") : rs.first_error;
  }

  // Deterministic sink assembly, independent of which attempt
  // produced each task's slot.
  DITTO_RETURN_IF_ERROR(merge_task_parts(rs.sink_parts, result.sink_outputs));
  DITTO_RETURN_IF_ERROR(merge_task_parts(rs.capture_parts, result.captured_outputs));

  for (const auto& [edge, ex] : exchanges) {
    const ExchangeStats es = ex->stats();
    result.stats.exchange.zero_copy_messages += es.zero_copy_messages;
    result.stats.exchange.remote_messages += es.remote_messages;
    result.stats.exchange.remote_bytes += es.remote_bytes;
    result.stats.exchange.duplicate_publishes += es.duplicate_publishes;
    result.stats.exchange.storage_retries += es.storage_retries;
    result.stats.exchange.producers_reset += es.producers_reset;
    result.stats.exchange.chunks_published += es.chunks_published;
    result.stats.exchange.chunks_consumed += es.chunks_consumed;
  }
  for (StageId s = 0; s < dag_->num_stages(); ++s) {
    result.stats.tasks_run += static_cast<std::size_t>(plan_->dop_of(s));
  }
  faults::ResilienceStats& res = result.stats.resilience;
  res.task_retries = rs.task_retries.load();
  res.speculative_launched = rs.spec_launched.load();
  res.speculative_wins = rs.spec_wins.load();
  res.storage_retries = result.stats.exchange.storage_retries;
  res.servers_lost = rs.servers_lost.load();
  res.tasks_rerouted = rs.tasks_rerouted.load();
  res.producers_recovered = rs.producers_recovered.load();
  res.duplicate_publishes = result.stats.exchange.duplicate_publishes;
  result.stats.wall_seconds = clock.elapsed_seconds();
  return result;
}

}  // namespace ditto::exec
