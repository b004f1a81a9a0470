// MiniEngine: executes a job DAG as real tasks over real data.
//
// This is the engine-level counterpart of the discrete-event
// simulator: where the simulator plays timings forward at cluster
// scale, the engine actually runs every task as work on a per-server
// thread pool (pool width = the server's slot count, so intra-server
// concurrency is bounded exactly like the paper's CPU-core limit) and
// moves every intermediate table through the Exchange fabric — zero-
// copy within a server, serialized through the object store across
// servers, exactly as the placement plan dictates.
//
// A run has three phases:
//   * plan — plan_run(), a pure function of the DAG, the placement plan
//     and the options: input checks, topological order, the checked
//     stream edges, the overlap groups and the private pool widths;
//   * run-group, once per group in order — launch every task of the
//     group, drive it (cancellation, speculation) until every attempt
//     chain has exited, drain it, and record its stages' observed
//     seconds and drift;
//   * finish — cancel the exchanges on failure, or collect the captured
//     stages' frames (each written on the shared compute pool once its
//     group drained), merge the sink outputs and fold the counters.
//
// Resilience (EngineOptions): every task runs as a chain of attempts,
// and one chain function serves both kinds of chain.
//   * retries — the original chain re-runs a failed attempt (crash,
//     thrown exception, storage error that outlived the fabric's own
//     retry budget) up to ResiliencePolicy::max_task_attempts times;
//   * speculation/deadlines — once half a wave has completed, tasks
//     slower than speculation_factor x the median (or older than
//     task_deadline) get a one-attempt duplicate chain on another
//     server; the first successful attempt wins the task's slot. A
//     chain that ends without winning leaves its failure with the
//     slot, so a failed duplicate cannot fail a slot its original won.
//     Duplicates are safe because Exchange publishes are idempotent
//     and sink outputs are first-writer-wins per (stage, task) slot;
//   * server loss — when the FaultInjector kills a server at a group
//     boundary, its pending tasks are rerouted to surviving servers'
//     pools and completed producers whose zero-copy intermediates
//     lived on the dead server are re-executed to re-publish them
//     (remote payloads survive in the object store).
// A stage is done at the latest end among its winning attempts.
// Everything is deterministic given deterministic bindings: inputs are
// gathered in producer order and sink outputs assembled in task order,
// so a faulted run's results are byte-identical to a fault-free run.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "cluster/runtime_monitor.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dag/job_dag.h"
#include "exec/exchange.h"
#include "exec/kernels.h"
#include "faults/fault_injector.h"
#include "faults/retry_policy.h"
#include "obs/profile_store.h"
#include "storage/object_store.h"

namespace ditto::exec {

/// The work a stage performs, executed once per task:
/// inputs[k] is the merged table from the k-th parent edge (the order
/// follows JobDag::parents), empty for source stages.
using StageFn =
    std::function<Result<Table>(int task, int dop, const std::vector<Table>& inputs)>;

/// Streaming variant of StageFn for pipelined shuffle edges (§4.5
/// pipelined read steps): inputs[k] iterates the k-th parent edge's
/// chunks. Parents whose edge does not stream (broadcast build sides,
/// materialized edges) appear as a single-chunk iterator over the
/// merged table. A streaming fn must produce output bit-identical to
/// its materialized StageFn on the concatenated chunks — that contract
/// is what keeps pipelined and wave execution interchangeable.
using StreamFn =
    std::function<Result<Table>(int task, int dop, std::vector<TableChunkFn>& inputs)>;

/// Per-stage binding of logic + partitioning key for its output edges.
/// A stage feeding multiple consumers can need different partition keys
/// per edge (e.g. Q1's customer totals shuffle by customer to the final
/// join but by store to the store-average stage): `edge_keys` overrides
/// `output_key` for specific downstream stages.
struct StageBinding {
  StageBinding() = default;
  StageBinding(StageFn f, std::string key, std::map<StageId, std::string> per_edge = {})
      : fn(std::move(f)), output_key(std::move(key)), edge_keys(std::move(per_edge)) {}

  StageFn fn;
  /// Optional streaming consumer (filter, join probe, ...). Used only
  /// when at least one parent edge is in EngineOptions::stream_edges;
  /// stages without one gather-on-last-chunk (recv_all) and run `fn`
  /// unchanged — the right fallback for blocking consumers like
  /// group-by builds.
  StreamFn stream_fn;
  std::string output_key;                  ///< default shuffle key
  std::map<StageId, std::string> edge_keys;  ///< per-consumer overrides

  const std::string& key_for(StageId consumer) const {
    const auto it = edge_keys.find(consumer);
    return it != edge_keys.end() ? it->second : output_key;
  }
};

/// Per-server worker pools shared across engine runs. A standalone run
/// checks private pools sized to its own placement out of the PoolPark;
/// a multi-job service instead builds ONE pool per cluster server
/// (width = the server's slot count) and hands it to every engine, so
/// concurrent jobs compete for exactly the paper's per-server CPU-core
/// limit instead of each job pretending it owns the machine. These pools run
/// task bodies only. The leaf compute that kernels and shuffle
/// partitioning fan out goes to one process-wide pool instead, shared
/// by every run whether its server pools are private or shared.
class ServerPools {
 public:
  /// `widths[v]` = worker threads for server v (clamped to >= 1).
  explicit ServerPools(const std::vector<int>& widths);

  std::size_t num_servers() const { return pools_.size(); }
  ThreadPool& pool(std::size_t v) { return *pools_.at(v); }

 private:
  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

/// Process-wide park of idle private server pools. A standalone run
/// (no EngineOptions::pools) checks out one pool per server, each of
/// exactly the width the run computed, and hands them back idle when it
/// ends, so back-to-back runs reuse parked threads instead of spawning
/// and joining a pool per server per run. A checked-out pool belongs to
/// one run alone. The park holds at most kMaxParkedThreads threads: a
/// returned pool that would exceed the bound displaces the
/// longest-parked pools, and one wider than the bound is destroyed.
class PoolPark {
 public:
  static constexpr std::size_t kMaxParkedThreads = 64;

  /// One run's pools, indexed by server. Destruction returns each pool
  /// to the park once it is idle (ThreadPool::wait_idle), whether the
  /// run succeeded, failed or was cancelled.
  class Lease {
   public:
    Lease(Lease&&) noexcept = default;
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    ThreadPool& pool(std::size_t v) { return *pools_.at(v); }

   private:
    friend class PoolPark;
    Lease(PoolPark* park, std::vector<std::unique_ptr<ThreadPool>> pools)
        : park_(park), pools_(std::move(pools)) {}

    PoolPark* park_;
    std::vector<std::unique_ptr<ThreadPool>> pools_;
  };

  /// The park every standalone MiniEngine run uses.
  static PoolPark& global();

  /// Pools of `widths[v]` threads (clamped to >= 1) for server v:
  /// parked ones of that exact width when there are any, new otherwise.
  Lease checkout(const std::vector<std::size_t>& widths);

  std::size_t parked_threads() const;

 private:
  void give_back(std::unique_ptr<ThreadPool> pool);

  mutable std::mutex mu_;
  std::deque<std::unique_ptr<ThreadPool>> idle_;  ///< longest-parked first
  std::size_t threads_ = 0;                       ///< sum of idle_ widths
};

/// Fault-handling knobs for a run. Defaults run fault-free with retry
/// wiring dormant (zero injected faults, so zero retries fire and the
/// resilient path costs nothing measurable).
struct EngineOptions {
  /// Fault source (not owned, may be null = inject nothing).
  faults::FaultInjector* injector = nullptr;
  faults::ResiliencePolicy resilience;

  /// Shared per-server pools (not owned, may be null = the run checks
  /// private pools out of PoolPark::global()). Must cover every server
  /// the plan places tasks on.
  ServerPools* pools = nullptr;

  /// Namespace for exchange keys in the shared object store. Empty =
  /// the DAG's name (fine for a run that owns the store). A service
  /// running concurrent jobs MUST set a per-job prefix: two jobs built
  /// from the same query share a DAG name, and colliding deterministic
  /// exchange keys would silently cross-feed their shuffles.
  std::string exchange_prefix;

  /// Cooperative cancellation (not owned, may be null). When the flag
  /// becomes true the run stops launching work, drains in-flight
  /// attempts, and returns CANCELLED.
  const std::atomic<bool>* cancel = nullptr;

  /// Profiling sink (not owned, may be null = record nothing). Every
  /// winning task attempt feeds one TaskSample into the store under
  /// (plan_fingerprint, stage, DoP) — the paper's §6.5 history that
  /// recurring submissions refit their time model from.
  obs::StageProfileStore* profiles = nullptr;
  std::uint64_t plan_fingerprint = 0;

  /// Predicted stage times (seconds, indexed by StageId) from the
  /// scheduler's time model under the plan's placement. When non-empty
  /// the engine emits `timemodel.drift` histogram samples and
  /// per-stage `timemodel.rel_error` gauges as each wave completes.
  /// The predictions must come from the model whose pipelining
  /// annotations gave `stream_edges` below.
  std::vector<double> predicted_stage_seconds;

  /// Pipelined shuffle (paper §4.5): the (producer, consumer) shuffle
  /// edges that stream. Their producers publish fixed-size row chunks
  /// and their consumers launch in the same overlap group, starting on
  /// the first arrived chunk — overlapping upstream compute, transport,
  /// and downstream compute. Empty (default) = classic stage waves with
  /// whole-table materialization. Callers pass
  /// workload::pipelined_edges(model), so the model the scheduler
  /// planned against and this run describe the same execution. run()
  /// returns INVALID_ARGUMENT for an entry that is not a shuffle edge
  /// of the DAG, and for a non-empty list together with `pools`: a
  /// blocked streaming consumer on a shared FIFO pool could starve the
  /// producer feeding it.
  std::vector<std::pair<StageId, StageId>> stream_edges;

  /// Rows per published chunk on streaming edges (the ScatterPlan
  /// chunk granularity; slices of borrowed columns are zero-copy).
  std::size_t chunk_rows = 64 * 1024;

  /// Non-sink stages whose merged outputs should also be returned, as
  /// serialized frames, in EngineResult::captured_outputs (the service
  /// result cache feeds on these). Copies nothing: the tasks' own
  /// outputs are kept and written once, into the frame, on the shared
  /// compute pool while later groups run. Sink stages are already
  /// returned and need no capturing.
  std::vector<StageId> capture_stages;
};

struct EngineStats {
  ExchangeStats exchange;           ///< aggregated over all edges
  faults::ResilienceStats resilience;
  double wall_seconds = 0.0;
  std::size_t tasks_run = 0;        ///< logical tasks (attempts excluded)
  /// Observed per-stage seconds (indexed by StageId), overlap-adjusted:
  /// a stage pipelined behind an in-group parent is charged only its
  /// tail beyond the parent's completion — the same quantity the
  /// annotated time model predicts for a pipelined read step. 0.0 for
  /// stages the driver could not time (failed waves).
  std::vector<double> stage_seconds;
};

struct EngineResult {
  /// Concatenated outputs of each sink stage's tasks, keyed by StageId.
  std::map<StageId, Table> sink_outputs;
  /// For each of EngineOptions::capture_stages, the serde v2 frame of
  /// the same task-order concatenation (exec/serde.h): the bytes of
  /// serialize_table(concat of its tasks' outputs), ready to store.
  std::map<StageId, storage::Payload> captured_outputs;
  EngineStats stats;
};

/// The plan phase of a run: its shape, derived from the DAG, the
/// placement plan and the options alone, before any task runs.
struct RunPlan {
  std::vector<StageId> order;  ///< topological
  /// EngineOptions::stream_edges, each checked to be a shuffle edge.
  std::set<std::pair<StageId, StageId>> stream_edges;
  /// Overlap groups in execution order, each a run of consecutive
  /// `order` stages. A stage joins the current group iff it has a parent
  /// there and every such parent feeds it through a stream edge; any
  /// other stage starts a new group. With no stream edges every group is
  /// one stage: a classic wave.
  std::vector<std::vector<StageId>> groups;
  std::vector<std::size_t> group_of;  ///< group index, by StageId
  /// Private pool width per server 0..max_server: the most tasks any
  /// one group places on it (at least 1). Empty with shared
  /// EngineOptions::pools.
  std::vector<std::size_t> pool_widths;
  ServerId max_server = 0;  ///< highest server the plan places a task on
};

/// Plans a run. INVALID_ARGUMENT for a plan not sized to the DAG, a
/// stream edge that is not a shuffle edge of the DAG, stream edges with
/// shared pools, and shared pools that do not cover the plan's servers.
Result<RunPlan> plan_run(const JobDag& dag, const cluster::PlacementPlan& plan,
                         const EngineOptions& options);

class MiniEngine {
 public:
  /// `store` backs remote exchange; `plan` supplies DoPs and task
  /// placement (servers are materialized as thread pools sized by the
  /// maximum concurrent tasks placed on them).
  MiniEngine(const JobDag& dag, const cluster::PlacementPlan& plan,
             storage::ObjectStore& store, EngineOptions options = {});

  /// Runs the whole DAG. `bindings[s]` must exist for every stage.
  Result<EngineResult> run(const std::map<StageId, StageBinding>& bindings,
                           cluster::RuntimeMonitor* monitor = nullptr);

 private:
  const JobDag* dag_;
  const cluster::PlacementPlan* plan_;
  storage::ObjectStore* store_;
  EngineOptions options_;
};

}  // namespace ditto::exec
