// JobService: a concurrent, multi-tenant job service over the real
// MiniEngine — the serving-system layer the paper leaves as future
// work (§4.5: inter-job resource allocation co-designed with intra-job
// elastic scheduling).
//
// Shape (Netherite-style service over Wukong-style decentralized
// execution): callers submit executable jobs (DAG + stage bindings +
// a physics-annotated model DAG) at any time; a dispatcher thread
// admits them strictly FIFO through a pluggable inter-job policy
// (admission.h), plans each admitted job with the Ditto scheduler
// against the slots currently free, leases those slots from the shared
// Cluster via RAII SlotLease handles, and runs the job on the shared
// per-server thread pools. Job lifecycle:
//
//     QUEUED -> ADMITTED -> RUNNING -> { DONE, FAILED, CANCELLED }
//
// Isolation guarantees for co-resident jobs:
//   * exchange keys are namespaced per job id, so two instances of the
//     same query never cross-feed shuffles through the shared store;
//   * slots are leased all-or-nothing and released exactly once (the
//     ledger rejects double releases), so one job's completion cannot
//     free another job's slots;
//   * per-server arena bytes are charged per job from its model-DAG
//     volumes and reclaimed at job end, so back-to-back jobs do not
//     grow shared-memory accounting without bound;
//   * chaos is per job: each submission carries its own FaultSpec and
//     the injector/FlakyStore it arms wrap only that job's engine run.
//
// Deadlines and cancellation are cooperative: a queued job past its
// deadline fails without running; a running job's engine is cancelled
// at the next wave boundary. drain() closes intake and waits for every
// job to reach a terminal state; the destructor drains implicitly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "cluster/slot_lease.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "dag/job_dag.h"
#include "exec/engine.h"
#include "faults/fault_injector.h"
#include "faults/flaky_store.h"
#include "faults/retry_policy.h"
#include "obs/profile_store.h"
#include "service/admission.h"
#include "service/journal.h"
#include "service/result_cache.h"
#include "storage/object_store.h"

namespace ditto::service {

using JobId = std::uint64_t;

enum class JobState { kQueued, kAdmitted, kRunning, kDone, kFailed, kCancelled };
const char* job_state_name(JobState s);
bool is_terminal(JobState s);

struct JobSubmission {
  std::string label;

  /// Executable side: the DAG the engine runs and its stage bindings.
  JobDag dag;
  std::map<StageId, exec::StageBinding> bindings;

  /// Scheduling side: the same DAG annotated with data volumes and
  /// physics-instantiated step models (see workload::apply_physics) —
  /// what the Ditto scheduler plans against. It must carry no
  /// pipelining annotations: the service's shared pools run waves, so
  /// submit() rejects an annotated model with INVALID_ARGUMENT rather
  /// than plan an overlap that never happens.
  JobDag model_dag;

  Objective objective = Objective::kJct;

  /// Seconds from submission to forced termination (0 = none). Expiry
  /// in the queue fails the job without running it; expiry while
  /// running cancels the engine at the next wave boundary. Either way
  /// the job ends FAILED with DEADLINE_EXCEEDED.
  Seconds deadline = 0.0;

  /// Per-job chaos: when armed (faults.any()), this job's engine run is
  /// wrapped in its own FaultInjector + FlakyStore. Co-resident jobs
  /// are untouched.
  faults::FaultSpec faults;
  faults::ResiliencePolicy resilience;

  /// SLO tier: "latency" jobs are enqueued ahead of "batch" jobs and
  /// survive load shedding; "batch" (the default) is shed first when
  /// the bounded admission queue overflows.
  std::string tier = "batch";

  /// Whole-job attempts on retriable (UNAVAILABLE) engine failure.
  /// 1 = no job-level retry. A retried job goes back through the
  /// admission queue after job_backoff's capped, jittered delay and
  /// re-runs under a fresh exchange epoch.
  int job_attempts = 1;
  faults::RetryPolicy job_backoff;

  /// Journal identity. `spec_line` is the serve-spec `job` line that
  /// re-creates this submission — it becomes the journaled SUBMIT
  /// payload (empty = this job is not journaled). `jid` pre-assigns the
  /// journal id (recovery resubmits; 0 = the journal assigns). `epoch`
  /// is the starting exchange epoch (recovered reruns pass next_epoch).
  std::string spec_line;
  std::uint64_t jid = 0;
  int epoch = 0;

  /// Result-cache identity (result_cache.h). When valid (enabled())
  /// and the service runs with a cache, this job can complete from
  /// cached sink bytes, reuse cached upstream stages, and deduplicate
  /// against an identical in-flight submission. Default-constructed =
  /// caching off for this job.
  CacheIdentity cache_id;

  /// Keeps source tables (captured by the bindings) alive for the
  /// job's lifetime.
  std::shared_ptr<const void> keepalive;
};

struct JobOutcome {
  JobId id = 0;
  std::string label;
  JobState state = JobState::kQueued;
  Status error;  ///< why FAILED/CANCELLED; OK for DONE

  // Service-clock timestamps (seconds since service start).
  Seconds submitted = 0.0;
  Seconds admitted = 0.0;
  Seconds started = 0.0;
  Seconds finished = 0.0;

  int slots_granted = 0;
  cluster::PlacementPlan plan;  ///< what the job actually ran with
  std::map<StageId, exec::Table> sink_outputs;
  exec::EngineStats stats;

  std::string tier;   ///< "latency" | "batch"
  int attempts = 1;   ///< engine runs this job took (>1 = job retried)
  int epoch = 0;      ///< exchange epoch of the final run
  std::uint64_t jid = 0;  ///< journal id (0 = unjournaled)

  /// True when the job completed without an engine run of its own: a
  /// whole-job cache hit, or a dedupe follower inheriting its leader's
  /// result (dedup_leader names the leader then).
  bool from_cache = false;
  JobId dedup_leader = 0;
  /// Cached stages this job reused (sinks served + stages pruned).
  std::size_t reused_stages = 0;

  Seconds queueing() const { return started - submitted; }
  Seconds jct() const { return finished - submitted; }
};

struct ServiceSummary {
  std::size_t submitted = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  Seconds mean_queueing = 0.0;
  Seconds max_queueing = 0.0;
  /// First submission to last completion.
  Seconds makespan = 0.0;
  /// Time-averaged fraction of cluster slots under lease during the
  /// makespan window.
  double avg_utilization = 0.0;

  std::string to_text() const;
};

struct ServiceOptions {
  AdmissionOptions admission;
  /// Storage model the scheduler prices non-co-located shuffles with.
  storage::StorageModel external;
  /// Bounded admission queue: submissions beyond this depth are
  /// fast-rejected RESOURCE_EXHAUSTED — except that a latency-tier
  /// arrival sheds the newest queued batch-tier job instead of being
  /// turned away. 0 = unbounded (the default).
  std::size_t max_queue_depth = 0;
  /// Reject a job at admission when the schedule plan's predicted JCT
  /// already exceeds its remaining deadline (fail fast instead of
  /// running doomed). Opt-in: model predictions are paper-scale
  /// seconds, real engine runs are milliseconds.
  bool reject_infeasible = false;
  /// Write-ahead journal for job lifecycle transitions (not owned; may
  /// be null). A failed SUBMIT append rejects the submission — losing
  /// SUBMIT would lose the job; later transitions are best-effort.
  JobJournal* journal = nullptr;
  /// Persist each completed job's serialized sink tables to the shared
  /// store under `sinks/<label>/stage-<id>` BEFORE the FINISH
  /// transition is journaled — so a journal that says DONE implies the
  /// answer bytes are durable. A failed persist fails (or retries) the
  /// job rather than completing it with volatile results.
  bool persist_sinks = false;
  /// Result cache byte budget (ROADMAP item 4). 0 disables caching,
  /// stage reuse, and in-flight dedupe — the default, so existing
  /// embedders opt in explicitly (dittoctl serve turns it on via the
  /// spec's `cache_bytes=`). Jobs additionally opt in per submission
  /// through JobSubmission::cache_id.
  Bytes cache_bytes = 0;
  /// Preload the cache from the shared store's `cache/` objects at
  /// construction and persist it there after each completed job, so
  /// `--state`/`--recover` restarts keep the cache warm.
  bool persist_cache = false;
};

class JobService {
 public:
  /// `cluster` supplies slots and per-server arenas; `store` backs all
  /// cross-server exchanges (namespaced per job). Neither is owned;
  /// both must outlive the service. All slot mutations on the cluster
  /// must go through this service once it exists.
  JobService(cluster::Cluster& cluster, storage::ObjectStore& store,
             ServiceOptions options = {});
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Queue a job. FAILED_PRECONDITION after drain()/destruction began;
  /// INVALID_ARGUMENT for a malformed submission (including a
  /// pipelining-annotated model_dag), which leaves no job record.
  Result<JobId> submit(JobSubmission sub);

  /// Cancel a queued or running job. Terminal jobs (and unknown ids)
  /// are errors; cancelling an already-cancelled job is OK (idempotent).
  Status cancel(JobId id);

  Result<JobState> state(JobId id) const;

  /// Block until the job is terminal; returns a copy of its outcome.
  Result<JobOutcome> wait(JobId id);

  /// Close intake, wait for every job to reach a terminal state and
  /// finish its best-effort cache save, and return all outcomes
  /// ordered by id. Idempotent.
  std::vector<JobOutcome> drain();

  ServiceSummary summary() const;

  int total_slots() const { return ledger_.total_slots(); }
  int free_slots() const { return ledger_.free_total(); }

  /// Point-in-time lifecycle view of every job the service has seen
  /// (the /jobs endpoint's data source).
  struct JobSnapshotRow {
    JobId id = 0;
    std::string label;
    JobState state = JobState::kQueued;
    std::string error;  ///< message for FAILED/CANCELLED, "" otherwise
    Seconds submitted = 0.0;
    Seconds started = 0.0;
    Seconds finished = 0.0;
    int slots_granted = 0;
  };
  std::vector<JobSnapshotRow> jobs_snapshot() const;

  /// The per-(fingerprint, stage, DoP) execution history: every
  /// winning task attempt of every run, keyed by the model DAG's
  /// structural fingerprint (paper §6.5 loop). In memory only.
  const obs::StageProfileStore& profiles() const { return profiles_; }
  obs::StageProfileStore& profiles() { return profiles_; }

  /// The recurring-job result cache; null while cache_bytes == 0.
  const ResultCache* result_cache() const { return cache_.get(); }
  ResultCache* result_cache() { return cache_.get(); }

 private:
  /// Partial-hit execution override, built at admission: the pruned
  /// DAG (cached upstream stages replaced by replay sources) the
  /// engine runs instead of the submission's.
  struct PrunedRun {
    JobDag dag;
    JobDag model;
    std::map<StageId, exec::StageBinding> bindings;
    std::vector<StageId> to_old;   ///< pruned id -> original id
    std::vector<bool> is_replay;   ///< by pruned id
    std::vector<StageId> capture_stages;  ///< pruned ids worth re-caching
    std::map<StageId, exec::Table> cached_sinks;  ///< original ids, decoded
    std::size_t reused_stages = 0;
    double slot_seconds_estimate = 0.0;  ///< saved-work estimate
  };

  struct JobRecord {
    JobId id = 0;
    JobSubmission sub;
    JobState state = JobState::kQueued;
    Status error;
    Seconds submitted = 0.0, admitted = 0.0, started = 0.0, finished = 0.0;
    double deadline_at = 0.0;  ///< absolute service clock; 0 = none

    std::uint64_t jid = 0;        ///< journal id (0 = unjournaled)
    int epoch = 0;                ///< exchange epoch of the current run
    int attempt = 1;              ///< 1-based engine-run attempt
    double earliest_admit = 0.0;  ///< retry backoff gate (service clock)

    cluster::SlotLease lease;
    std::vector<Bytes> arena_charge;  ///< per-server bytes reserved
    cluster::PlacementPlan plan;
    std::map<StageId, exec::Table> sinks;
    exec::EngineStats stats;

    // Result cache + in-flight dedupe (all guarded by mu_).
    bool from_cache = false;          ///< served without an engine run
    std::size_t reused_stages = 0;    ///< cached stages this job reused
    bool cache_counted = false;       ///< job-level hit/miss accounted
    JobId leader = 0;                 ///< follower: leader job id (0 = none)
    JobId dedup_leader = 0;           ///< terminal: who served this follower
    std::vector<JobId> followers;     ///< leader: attached identical jobs
    bool inflight_registered = false; ///< this job owns inflight_[cache_id]
    std::unique_ptr<PrunedRun> pruned;

    std::unique_ptr<faults::FaultInjector> injector;
    std::unique_ptr<faults::FlakyStore> flaky;
    std::atomic<bool> cancel_token{false};
    /// Set (with mu_ held) before cancel_token, so the runner knows
    /// whether the token meant "user cancel" or "deadline".
    Status pending_stop;

    std::thread runner;
  };

  void dispatcher_loop();
  /// Batched admission (Netherite-style work-queue drain): takes ONE
  /// free-slot snapshot, then admits the drainable FIFO prefix of the
  /// queue in a single planning pass — serving queued whole-job cache
  /// hits, pruning partial hits, and stopping at the first job the
  /// remaining offer cannot fit (strict FIFO preserved). Returns how
  /// many jobs made progress (admitted, served, or failed). Caller
  /// holds mu_.
  std::size_t admit_batch_locked();
  /// Serves a whole-job cache hit: every sink decoded from cache, sink
  /// bytes persisted (when configured), job finished DONE without
  /// touching the slot ledger. False = some sink missing/corrupt; run
  /// it normally. Caller holds mu_; rec must not be in queue_.
  bool try_serve_from_cache_locked(JobRecord& rec);
  /// Builds rec.pruned when cached upstream stages let the scheduler
  /// plan a smaller DAG; counts the job's hit/miss class. Caller holds
  /// mu_.
  void build_pruned_run_locked(JobRecord& rec);
  /// Terminal-state fan-out for in-flight dedupe: DONE copies sinks to
  /// followers, FAILED propagates the same Status, CANCELLED promotes
  /// the first live follower to a fresh leader. Also releases this
  /// job's inflight_ registration. Caller holds mu_.
  void resolve_followers_locked(JobRecord& rec);
  /// Removes rec from its leader's follower list. Caller holds mu_.
  void detach_follower_locked(JobRecord& rec);
  /// Inserts into queue_ honoring tier priority: latency jobs go ahead
  /// of every queued batch job, FIFO within a tier. Caller holds mu_.
  void enqueue_locked(JobId id, const std::string& tier);
  /// Publishes the queue-depth gauge. Caller holds mu_.
  void note_queue_locked();
  void expire_deadlines_locked();
  void run_job(JobRecord* rec);
  void finish_job_locked(JobRecord& rec, JobState state, Status error);
  /// Emits per-job labeled metrics + a job-track trace span (no-ops
  /// while observability is disabled).
  void observe_terminal_locked(const JobRecord& rec);
  void release_resources_locked(JobRecord& rec);
  JobOutcome outcome_of_locked(const JobRecord& rec) const;
  double now() const { return clock_.elapsed_seconds(); }

  cluster::Cluster* cluster_;
  storage::ObjectStore* store_;
  ServiceOptions options_;
  cluster::SlotLedger ledger_;
  exec::ServerPools pools_;
  Stopwatch clock_;
  obs::StageProfileStore profiles_;
  std::unique_ptr<ResultCache> cache_;  ///< null while cache_bytes == 0

  mutable std::mutex mu_;
  std::condition_variable dispatch_cv_;  ///< wakes the dispatcher
  std::condition_variable state_cv_;     ///< wakes wait()/drain()
  std::map<JobId, std::unique_ptr<JobRecord>> jobs_;
  std::deque<JobId> queue_;  ///< FIFO of QUEUED job ids
  /// In-flight dedupe: identity -> the job (leader) currently queued or
  /// running it. Identical arrivals attach as followers instead of
  /// executing twice.
  std::map<CacheIdentity, JobId> inflight_;
  JobId next_id_ = 1;
  int running_jobs_ = 0;
  bool intake_closed_ = false;
  bool stop_dispatcher_ = false;
  std::vector<JobId> finished_unjoined_;  ///< runners awaiting join
  /// Runners past their terminal transition still doing the
  /// best-effort cache save; drain() waits for them.
  int runners_saving_ = 0;

  // Summary accounting (guarded by mu_).
  Seconds first_submit_ = -1.0;
  Seconds last_finish_ = 0.0;
  double slot_seconds_at_first_submit_ = 0.0;
  double slot_seconds_at_last_finish_ = 0.0;

  std::thread dispatcher_;
};

}  // namespace ditto::service
