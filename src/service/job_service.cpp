#include "service/job_service.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "dag/dag_algorithms.h"
#include "exec/serde.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scheduler/ditto_scheduler.h"
#include "timemodel/predictor.h"
#include "workload/pipelining.h"

namespace ditto::service {
namespace {

std::vector<int> slot_widths(const cluster::Cluster& cluster) {
  std::vector<int> widths(cluster.num_servers(), 1);
  for (std::size_t v = 0; v < cluster.num_servers(); ++v) {
    widths[v] = cluster.server(v).total_slots();
  }
  return widths;
}

/// Per-server shared-memory bytes a job's intermediates occupy: each
/// task materializes output_bytes / dop of its stage's output on its
/// server. A modeling charge (the engine's tables live on the heap),
/// but it makes arena accounting observable and reclaimable per job.
std::vector<Bytes> arena_demand(const JobDag& model_dag, const cluster::PlacementPlan& plan,
                                std::size_t servers) {
  std::vector<Bytes> demand(servers, 0);
  for (StageId s = 0; s < plan.task_server.size(); ++s) {
    if (s >= model_dag.num_stages()) break;
    const int dop = plan.dop_of(s);
    if (dop <= 0) continue;
    const Bytes per_task = model_dag.stage(s).output_bytes() / dop;
    for (ServerId v : plan.task_server[s]) {
      if (v != kNoServer && v < servers) demand[v] += per_task;
    }
  }
  return demand;
}

/// Stages feeding a gather edge. Their outputs are never cached for
/// reuse: gather routes producer task i to consumer task i, and a
/// replayed producer collapses to a single task.
std::vector<bool> feeds_gather(const JobDag& dag) {
  std::vector<bool> out(dag.num_stages(), false);
  for (const Edge& e : dag.edges()) {
    if (e.exchange == ExchangeKind::kGather) out[e.src] = true;
  }
  return out;
}

/// Tasks in `plan`: the slots a job was granted.
int plan_slots(const cluster::PlacementPlan& plan) {
  int slots = 0;
  for (const auto& row : plan.task_server) slots += static_cast<int>(row.size());
  return slots;
}

/// A decoded cache entry and the hit it came from.
struct CachedTable {
  exec::Table table;
  ResultCache::Hit hit;
};

/// Looks up and decodes (id, stage). A corrupt entry is dropped so this
/// job and later ones run cold; nullopt on a miss or a drop.
std::optional<CachedTable> decode_cached(ResultCache& cache, const CacheIdentity& id,
                                         StageId stage) {
  auto hit = cache.lookup(id, stage);
  if (!hit.has_value()) return std::nullopt;
  auto table = exec::deserialize_table(std::string_view(*hit->bytes));
  if (!table.ok()) {
    cache.remove(id, stage);
    return std::nullopt;
  }
  return CachedTable{std::move(*table), std::move(*hit)};
}

/// A whole-job hit for `sub`: every sink cached and decodable. Probes
/// first, so a partial hit decodes nothing.
std::optional<CacheServe> lookup_whole_hit(ResultCache& cache, const JobSubmission& sub) {
  if (!sub.cache_id.enabled()) return std::nullopt;
  std::vector<StageId> sinks;
  for (StageId s = 0; s < sub.dag.num_stages(); ++s) {
    if (!sub.dag.children(s).empty()) continue;
    if (!cache.contains(sub.cache_id, s)) return std::nullopt;
    sinks.push_back(s);
  }
  if (sinks.empty()) return std::nullopt;
  CacheServe hit;
  for (const StageId s : sinks) {
    auto cached = decode_cached(cache, sub.cache_id, s);
    if (!cached.has_value()) return std::nullopt;
    hit.sinks.emplace(s, std::move(cached->table));
    hit.bytes.emplace_back(s, cached->hit.bytes);
    hit.slot_seconds = std::max(hit.slot_seconds, cached->hit.slot_seconds);
  }
  return hit;
}

/// The pruned run of `sub` when cached upstream stages let the scheduler
/// plan a smaller DAG; null when nothing cached is reusable.
std::shared_ptr<const PrunedRun> build_pruned_run(ResultCache& cache, const JobSubmission& sub) {
  const JobDag& dag = sub.dag;
  const std::vector<bool> gather_out = feeds_gather(dag);
  std::vector<bool> completed(dag.num_stages(), false);
  std::size_t ncomp = 0;
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    completed[s] = !gather_out[s] && cache.contains(sub.cache_id, s);
    if (completed[s]) ++ncomp;
  }
  if (ncomp == 0) return nullptr;
  // Fails e.g. when every sink got cached since the whole-hit probe, or
  // on a gather edge the mask missed: run the full DAG.
  auto pruning = prune_completed_stages(dag, completed);
  if (!pruning.ok()) return nullptr;
  auto model_pruning = prune_completed_stages(sub.model_dag, completed);
  if (!model_pruning.ok()) return nullptr;

  auto pr = std::make_shared<PrunedRun>();
  pr->dag = std::move(pruning->dag);
  pr->model = std::move(model_pruning->dag);
  pr->to_old = std::move(pruning->to_old);
  pr->is_replay = std::move(pruning->is_replay);
  double hit_slot_seconds = 0.0;
  for (StageId ns = 0; ns < pr->dag.num_stages(); ++ns) {
    const auto ob = sub.bindings.find(pr->to_old[ns]);
    exec::StageBinding b;
    if (pr->is_replay[ns]) {
      auto cached = decode_cached(cache, sub.cache_id, pr->to_old[ns]);
      if (!cached.has_value()) return nullptr;  // raced an eviction
      hit_slot_seconds = std::max(hit_slot_seconds, cached->hit.slot_seconds);
      // Replay source: task 0 emits the cached table, the rest emit a
      // schema-preserving empty slice. The stable scatter then
      // reproduces the cold run's partitions byte-for-byte.
      auto shared = std::make_shared<const exec::Table>(std::move(cached->table));
      b.fn = [shared](int task, int, const std::vector<exec::Table>&) -> Result<exec::Table> {
        return task == 0 ? *shared : shared->slice(0, 0);
      };
    } else if (ob != sub.bindings.end()) {
      b.fn = ob->second.fn;
    } else {
      return nullptr;
    }
    if (ob != sub.bindings.end()) {
      // Per-consumer partition keys, remapped into pruned ids.
      b.output_key = ob->second.output_key;
      for (const auto& [consumer, key] : ob->second.edge_keys) {
        if (consumer < pruning->to_new.size() && pruning->to_new[consumer] != kNoStage) {
          b.edge_keys[pruning->to_new[consumer]] = key;
        }
      }
    }
    pr->bindings.emplace(ns, std::move(b));
  }
  // Completed sinks were dropped from the pruned DAG entirely; decode
  // them now and merge them into the outcome after the run.
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    if (!completed[s] || !dag.children(s).empty()) continue;
    auto cached = decode_cached(cache, sub.cache_id, s);
    if (!cached.has_value()) return nullptr;
    hit_slot_seconds = std::max(hit_slot_seconds, cached->hit.slot_seconds);
    pr->cached_sinks.emplace(s, std::move(cached->table));
  }
  // Surviving non-sink stages are re-captured so a later identical
  // submission upgrades to a whole-job hit.
  for (StageId ns = 0; ns < pr->dag.num_stages(); ++ns) {
    if (pr->is_replay[ns] || pr->dag.children(ns).empty()) continue;
    if (!gather_out[pr->to_old[ns]]) pr->capture_stages.push_back(ns);
  }
  pr->reused_stages = ncomp;
  pr->slot_seconds_estimate = hit_slot_seconds * static_cast<double>(ncomp) /
                              static_cast<double>(dag.num_stages());
  return pr;
}

/// One admit decision for `job` against the pass's current view.
Admission admit_job(const QueuedJob& job, const LedgerView& view, ResultCache* cache,
                    const ServiceOptions& options, double now) {
  const JobSubmission& sub = *job.sub;
  Admission a;
  a.id = job.id;
  const bool cache_on = cache != nullptr && sub.cache_id.enabled();
  // A whole-job hit may have materialized while this job queued (an
  // identical job finished ahead of it): serve it slot-free.
  if (cache_on && !job.skip_whole_hit) {
    if (auto hit = lookup_whole_hit(*cache, sub)) {
      a.kind = Admission::Kind::kServe;
      a.served = std::move(*hit);
      return a;
    }
  }
  const std::vector<int> offer = admission_offer(options.admission, view.free, view.total,
                                                 view.leased);
  if (offer.empty()) return a;  // policy says wait
  // Nothing leased is the maximal offer: a head it cannot fit never fits.
  const auto fail_or_wait = [&](Status why) {
    if (view.leased == 0) {
      a.kind = Admission::Kind::kFail;
      a.error = std::move(why);
    }
    return std::move(a);
  };

  // Partial hit: prune cached upstream stages before planning so the
  // scheduler sizes only the work that actually runs.
  std::shared_ptr<const PrunedRun> pruned = job.pruned;
  if (cache_on && pruned == nullptr && job.attempt <= 1) {
    a.pruned = pruned = build_pruned_run(*cache, sub);
    a.cache_miss = pruned == nullptr;
  }
  const JobDag& model = pruned != nullptr ? pruned->model : sub.model_dag;
  scheduler::DittoScheduler sched;
  auto plan = sched.schedule(model, cluster::Cluster::from_slots(offer), sub.objective,
                             options.external);
  if (!plan.ok()) {
    return fail_or_wait(Status::unavailable(
        "job does not fit the cluster under policy " +
        std::string(admission_policy_name(options.admission.policy)) + ": " +
        plan.status().message()));
  }
  // Deadline infeasibility: the plan's own time model says this job
  // cannot make its deadline — fail fast instead of running doomed.
  if (options.reject_infeasible && job.deadline_at > 0.0 &&
      plan->predicted.jct > job.deadline_at - now) {
    std::ostringstream why;
    why << "infeasible: predicted JCT " << plan->predicted.jct
        << " s exceeds remaining deadline " << std::max(0.0, job.deadline_at - now) << " s";
    return fail_or_wait(Status::deadline_exceeded(why.str()));
  }
  const std::size_t servers = view.free.size();
  a.demand = cluster::slot_demand(plan->placement, servers);
  a.charge = arena_demand(model, plan->placement, servers);
  for (std::size_t v = 0; v < servers; ++v) {
    if (a.charge[v] > view.arena_free[v]) {
      return fail_or_wait(Status::resource_exhausted("arena of server " + std::to_string(v) +
                                                     " full"));
    }
  }
  a.kind = Admission::Kind::kRun;
  a.plan = std::move(plan->placement);
  return a;
}

storage::Payload serialize_payload(const exec::Table& table) {
  return std::make_shared<const std::string>(exec::serialize_table_to_string(table));
}

Status validate_submission(const JobSubmission& sub) {
  if (sub.dag.num_stages() == 0) {
    return Status::invalid_argument("job DAG has no stages");
  }
  if (sub.model_dag.num_stages() != sub.dag.num_stages()) {
    return Status::invalid_argument("model DAG does not match executable DAG (" +
                                    std::to_string(sub.model_dag.num_stages()) + " vs " +
                                    std::to_string(sub.dag.num_stages()) + " stages)");
  }
  if (!workload::pipelined_edges(sub.model_dag).empty()) {
    return Status::invalid_argument(
        "model DAG carries pipelining annotations, but the service's shared pools run "
        "waves");
  }
  if (sub.tier != "latency" && sub.tier != "batch") {
    return Status::invalid_argument("bad tier '" + sub.tier + "' (latency|batch)");
  }
  if (sub.job_attempts < 1) {
    return Status::invalid_argument("job_attempts must be >= 1");
  }
  return Status::ok();
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kAdmitted: return "ADMITTED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "UNKNOWN";
}

bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed || s == JobState::kCancelled;
}

std::string ServiceSummary::to_text() const {
  std::ostringstream out;
  out << "jobs: " << submitted << " submitted, " << done << " done, " << failed << " failed, "
      << cancelled << " cancelled\n";
  out << "queueing: mean " << mean_queueing << " s, max " << max_queueing << " s\n";
  out << "makespan: " << makespan << " s, avg slot utilization "
      << static_cast<int>(avg_utilization * 100.0 + 0.5) << "%\n";
  return out.str();
}

std::vector<Admission> admit_pass(const std::vector<QueuedJob>& queue, LedgerView view,
                                  ResultCache* cache, const ServiceOptions& options,
                                  double now) {
  std::vector<Admission> decisions;
  for (const QueuedJob& job : queue) {
    if (job.earliest_admit > now) continue;  // backing off: overtaken
    decisions.push_back(admit_job(job, view, cache, options, now));
    const Admission& a = decisions.back();
    if (a.kind == Admission::Kind::kWait) break;
    if (a.kind != Admission::Kind::kRun) continue;
    for (std::size_t v = 0; v < view.free.size(); ++v) {
      view.free[v] -= a.demand[v];
      view.leased += a.demand[v];
      view.arena_free[v] -= a.charge[v];
    }
  }
  return decisions;
}

JobService::JobService(cluster::Cluster& cluster, storage::ObjectStore& store,
                       ServiceOptions options)
    : cluster_(&cluster),
      store_(&store),
      options_(std::move(options)),
      ledger_(cluster),
      pools_(slot_widths(cluster)),
      runners_(static_cast<std::size_t>(std::max(1, ledger_.total_slots()))) {
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_bytes);
    if (options_.persist_cache) {
      // Best effort: a fresh store simply has no cache yet, and a warm
      // cache is an optimization, never a startup requirement.
      const Status loaded = cache_->load(*store_);
      (void)loaded;
    }
  }
  dispatcher_ = std::thread(&JobService::dispatcher_loop, this);
}

JobService::~JobService() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_dispatcher_ = true;
    wake_dispatcher_locked();
  }
  dispatcher_.join();
}

Result<JobId> JobService::submit(JobSubmission sub) {
  DITTO_RETURN_IF_ERROR(validate_submission(sub));
  // A whole-job hit is decoded here, off the lock, and served below
  // without a queue slot.
  std::optional<CacheServe> hit;
  if (cache_ != nullptr) hit = lookup_whole_hit(*cache_, sub);
  JobRecord* rec = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (intake_closed_) {
      return Status::failed_precondition("job service is draining; intake closed");
    }
    // Neither a hit nor an in-flight duplicate (it attaches to its
    // leader) takes a queue slot, so neither is subject to shedding.
    const auto in = hit.has_value() ? inflight_.end() : inflight_.find(sub.cache_id);
    const JobId leader_id = in != inflight_.end() ? in->second : 0;
    if (!hit.has_value() && leader_id == 0) DITTO_RETURN_IF_ERROR(make_room_locked(sub.tier));
    DITTO_ASSIGN_OR_RETURN(rec, add_record_locked(std::move(sub)));
    if (hit.has_value()) {
      rec->state = JobState::kAdmitted;
      rec->admitted = rec->started = now();
    } else if (leader_id != 0) {
      // In-flight dedupe: the leader's terminal transition resolves us
      // (result copy, failure, or promotion).
      rec->leader = leader_id;
      jobs_.at(leader_id)->followers.push_back(rec->id);
      obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
      if (mx.enabled()) mx.counter("service.dedup_followers", {{"tier", rec->sub.tier}}).add();
      obs::TraceCollector& tc = obs::TraceCollector::global();
      if (tc.enabled()) {
        tc.instant("service", "dedup.attach", static_cast<std::uint64_t>(now() * 1e6), -1,
                   static_cast<std::int64_t>(rec->id),
                   {{"leader", std::to_string(leader_id)}});
      }
    } else {
      if (cache_ != nullptr && rec->sub.cache_id.enabled()) {
        inflight_[rec->sub.cache_id] = rec->id;
        rec->inflight_registered = true;
      }
      enqueue_locked(rec->id, rec->sub.tier);
    }
  }
  state_cv_.notify_all();  // a shed job may have just turned terminal
  if (hit.has_value()) serve_from_cache(*rec, std::move(*hit), /*from_queue=*/false);
  return rec->id;
}

Status JobService::make_room_locked(const std::string& tier) {
  if (options_.max_queue_depth == 0 || queue_.size() < options_.max_queue_depth) {
    return Status::ok();
  }
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  // Overload: shed the newest queued batch-tier job to make room for a
  // latency-tier arrival; otherwise fast-reject the arrival.
  const auto victim =
      tier == "latency"
          ? std::find_if(queue_.rbegin(), queue_.rend(),
                         [&](JobId qid) { return jobs_.at(qid)->sub.tier != "latency"; })
          : queue_.rend();
  if (victim == queue_.rend()) {
    if (mx.enabled()) mx.counter("service.rejected_jobs", {{"tier", tier}}).add();
    return Status::resource_exhausted("admission queue full (" + std::to_string(queue_.size()) +
                                      " jobs)");
  }
  JobRecord& shed = *jobs_.at(*victim);
  queue_.erase(std::next(victim).base());
  if (mx.enabled()) mx.counter("service.shed_jobs", {{"tier", shed.sub.tier}}).add();
  finish_job_locked(shed, JobState::kFailed,
                    Status::resource_exhausted("shed under overload (batch tier, queue full at "
                                               "depth " +
                                               std::to_string(options_.max_queue_depth) + ")"));
  return Status::ok();
}

Result<JobService::JobRecord*> JobService::add_record_locked(JobSubmission sub) {
  auto rec = std::make_unique<JobRecord>();
  rec->sub = std::move(sub);
  rec->submitted = now();
  if (rec->sub.deadline > 0.0) rec->deadline_at = rec->submitted + rec->sub.deadline;
  rec->epoch = rec->sub.epoch;
  if (options_.journal != nullptr && !rec->sub.spec_line.empty()) {
    auto jid = options_.journal->append_submit(rec->sub.spec_line, rec->sub.tier,
                                              rec->sub.deadline, rec->sub.jid);
    if (!jid.ok()) {
      // A job the journal never saw would be lost by a crash — refuse
      // to accept it on the quiet.
      return Status::unavailable("journal SUBMIT append failed: " + jid.status().message());
    }
    rec->jid = *jid;
  }
  rec->id = next_id_++;
  if (rec->sub.label.empty()) rec->sub.label = "job-" + std::to_string(rec->id);
  if (first_submit_ < 0.0) {
    first_submit_ = rec->submitted;
    slot_seconds_at_first_submit_ = ledger_.slot_seconds();
  }
  JobRecord* raw = rec.get();
  jobs_.emplace(raw->id, std::move(rec));
  return raw;
}

void JobService::enqueue_locked(JobId id, const std::string& tier, bool front) {
  const bool latency = tier == "latency";
  // The front of the latency tier or the back of the batch tier is an
  // end of the queue; the other two are where the batch tier begins.
  auto it = latency ? queue_.begin() : queue_.end();
  if (latency != front) {
    it = std::find_if(queue_.begin(), queue_.end(),
                      [&](JobId qid) { return jobs_.at(qid)->sub.tier != "latency"; });
  }
  queue_.insert(it, id);
  note_queue_locked();
  wake_dispatcher_locked();
}

void JobService::note_queue_locked() {
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (!mx.enabled()) return;
  mx.gauge("service.queue_depth",
           {{"policy", admission_policy_name(options_.admission.policy)}})
      .set(static_cast<double>(queue_.size()));
}

void JobService::wake_dispatcher_locked() {
  ++wakeups_;
  dispatch_cv_.notify_all();
}

Status JobService::cancel(JobId id) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::not_found("no job " + std::to_string(id));
  }
  JobRecord& rec = *it->second;
  if (is_terminal(rec.state)) {
    if (rec.state == JobState::kCancelled) return Status::ok();
    return Status::failed_precondition("job " + std::to_string(id) + " already " +
                                       job_state_name(rec.state));
  }
  if (rec.state == JobState::kQueued) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
    note_queue_locked();
    finish_job_locked(rec, JobState::kCancelled, Status::cancelled("cancelled while queued"));
    wake_dispatcher_locked();
    lk.unlock();
    state_cv_.notify_all();
    return Status::ok();
  }
  // ADMITTED/RUNNING: ask the engine to stop at the next wave boundary.
  if (rec.pending_stop.is_ok()) rec.pending_stop = Status::cancelled("cancelled by caller");
  rec.cancel_token.store(true, std::memory_order_release);
  return Status::ok();
}

Result<JobState> JobService::state(JobId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::not_found("no job " + std::to_string(id));
  return it->second->state;
}

Result<JobOutcome> JobService::wait(JobId id) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::not_found("no job " + std::to_string(id));
  JobRecord& rec = *it->second;
  state_cv_.wait(lk, [&] { return is_terminal(rec.state); });
  return outcome_of_locked(rec);
}

std::vector<JobOutcome> JobService::drain() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    intake_closed_ = true;
    state_cv_.wait(lk, [&] {
      return std::all_of(jobs_.begin(), jobs_.end(),
                         [](const auto& kv) { return is_terminal(kv.second->state); });
    });
  }
  // Runner tasks past their terminal transition may still be removing
  // exchange objects or saving the cache.
  runners_.wait_idle();
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) outcomes.push_back(outcome_of_locked(*rec));
  return outcomes;
}

ServiceSummary JobService::summary() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServiceSummary s;
  s.submitted = jobs_.size();
  double queue_sum = 0.0;
  std::size_t started = 0;
  for (const auto& [id, rec] : jobs_) {
    switch (rec->state) {
      case JobState::kDone: ++s.done; break;
      case JobState::kFailed: ++s.failed; break;
      case JobState::kCancelled: ++s.cancelled; break;
      default: break;
    }
    if (rec->started > 0.0) {
      const double q = rec->started - rec->submitted;
      queue_sum += q;
      s.max_queueing = std::max(s.max_queueing, q);
      ++started;
    }
  }
  if (started > 0) s.mean_queueing = queue_sum / static_cast<double>(started);
  if (first_submit_ >= 0.0 && last_finish_ > first_submit_) {
    s.makespan = last_finish_ - first_submit_;
    const double busy = slot_seconds_at_last_finish_ - slot_seconds_at_first_submit_;
    const double capacity = static_cast<double>(ledger_.total_slots()) * s.makespan;
    if (capacity > 0.0) s.avg_utilization = busy / capacity;
  }
  return s;
}

void JobService::dispatcher_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_dispatcher_) {
    expire_deadlines_locked();
    const std::uint64_t seen = wakeups_;
    const double t = now();
    std::vector<QueuedJob> queue;
    std::size_t eligible = 0;
    for (const JobId qid : queue_) {
      const JobRecord& rec = *jobs_.at(qid);
      queue.push_back(QueuedJob{rec.id, &rec.sub, rec.attempt, rec.earliest_admit,
                                rec.deadline_at, rec.pruned, rec.skip_whole_hit});
      if (rec.earliest_admit <= t) ++eligible;
    }
    if (eligible > 0) {
      obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
      if (mx.enabled()) {
        const obs::MetricLabels labels{
            {"policy", admission_policy_name(options_.admission.policy)}};
        mx.counter("service.admission_passes", labels).add();
        mx.histogram("service.admission_batch", 0.0, 64.0, 32, labels)
            .observe(static_cast<double>(eligible));
      }
      LedgerView view{ledger_.free_snapshot(), ledger_.outstanding_total(),
                      ledger_.total_slots(), {}};
      for (std::size_t v = 0; v < cluster_->num_servers(); ++v) {
        view.arena_free.push_back(cluster_->server(v).arena().available());
      }
      lk.unlock();
      for (Admission& a : admit_pass(queue, std::move(view), cache_.get(), options_, t)) {
        commit(std::move(a));
      }
      lk.lock();
    }
    if (wakeups_ != seen) continue;
    // Sleep until woken, the earliest pending deadline, or the earliest
    // retry-backoff gate.
    double next = 0.0;
    const auto consider = [&](double at) {
      if (at > 0.0 && (next <= 0.0 || at < next)) next = at;
    };
    for (const auto& [id, rec] : jobs_) {
      if (is_terminal(rec->state)) continue;
      // Once the cancel token is set the runner owns the deadline: it
      // observes the token and finishes the job.
      if (!rec->cancel_token.load()) consider(rec->deadline_at);
      if (rec->earliest_admit > t) consider(rec->earliest_admit);
    }
    const auto woken = [&] { return wakeups_ != seen || stop_dispatcher_; };
    if (next > 0.0) {
      // At least 1 ms, so a deadline already past (expired on the next
      // pass) cannot spin the dispatcher.
      dispatch_cv_.wait_for(lk, std::chrono::duration<double>(std::max(1e-3, next - now())),
                            woken);
    } else {
      dispatch_cv_.wait(lk, woken);
    }
  }
}

void JobService::expire_deadlines_locked() {
  const double t = now();
  for (const auto& [id, rec] : jobs_) {
    if (is_terminal(rec->state) || rec->deadline_at <= 0.0 || t < rec->deadline_at) continue;
    const std::string why = "deadline expired after " + std::to_string(rec->sub.deadline) + " s";
    if (rec->state != JobState::kQueued) {
      // A running job gets a cooperative stop; the runner maps the
      // engine's CANCELLED into FAILED/DEADLINE_EXCEEDED.
      if (rec->cancel_token.load(std::memory_order_acquire)) continue;
      if (rec->pending_stop.is_ok()) rec->pending_stop = Status::deadline_exceeded(why);
      rec->cancel_token.store(true, std::memory_order_release);
      continue;
    }
    // A queued job fails without ever running. Dedupe followers live
    // outside queue_, attached to a leader, and detach on the way out.
    const bool follower = rec->leader != 0;
    if (!follower) {
      queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
      note_queue_locked();
    }
    finish_job_locked(*rec, JobState::kFailed,
                      Status::deadline_exceeded(
                          why + (follower ? " waiting on deduplicated leader" : " in queue")));
    state_cv_.notify_all();
  }
}

void JobService::commit(Admission a) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto qit = std::find(queue_.begin(), queue_.end(), a.id);
  if (qit == queue_.end()) return;
  JobRecord& rec = *jobs_.at(a.id);
  if (a.pruned != nullptr) {
    rec.pruned = a.pruned;
    rec.reused_stages = a.pruned->reused_stages;
  }
  if (!rec.cache_counted && (a.pruned != nullptr || a.cache_miss)) {
    rec.cache_counted = true;
    if (a.cache_miss) {
      cache_->note_miss();
    } else {
      cache_->note_partial_hit(a.pruned->slot_seconds_estimate);
      obs::TraceCollector& tc = obs::TraceCollector::global();
      if (tc.enabled()) {
        tc.instant("service", "cache.partial_hit", static_cast<std::uint64_t>(now() * 1e6), -1,
                   static_cast<std::int64_t>(rec.id),
                   {{"job", rec.sub.label},
                    {"reused_stages", std::to_string(a.pruned->reused_stages)}});
      }
    }
  }
  if (a.kind == Admission::Kind::kWait) return;
  if (a.kind == Admission::Kind::kRun) {
    // Slots and arena bytes only come back between the snapshot and
    // here, so both fit; a refusal leaves the job queued.
    auto lease = ledger_.acquire(a.demand);
    if (!lease.ok()) return;
    for (std::size_t v = 0; v < a.charge.size(); ++v) {
      if (a.charge[v] == 0 || cluster_->server(v).arena().reserve(a.charge[v]).is_ok()) continue;
      for (std::size_t u = 0; u < v; ++u) cluster_->server(u).arena().release(a.charge[u]);
      return;  // the lease returns its slots as it goes out of scope
    }
    rec.lease = std::move(*lease);
    rec.arena_charge = std::move(a.charge);
    rec.plan = std::move(a.plan);
    if (options_.journal != nullptr && rec.jid != 0) {
      const Status journaled = options_.journal->append_admit(rec.jid);
      (void)journaled;  // best effort: a lost ADMIT only re-plans on recovery
    }
    ++running_jobs_;
  }
  queue_.erase(qit);
  note_queue_locked();
  if (a.kind == Admission::Kind::kFail) {
    finish_job_locked(rec, JobState::kFailed, std::move(a.error));
    lk.unlock();
    state_cv_.notify_all();
    return;
  }
  rec.state = JobState::kAdmitted;
  rec.admitted = now();
  if (a.kind == Admission::Kind::kRun) {
    runners_.submit([this, &rec] { run_job(rec); });
    return;
  }
  rec.started = rec.admitted;
  lk.unlock();
  serve_from_cache(rec, std::move(a.served), /*from_queue=*/true);
}

void JobService::run_job(JobRecord& rec) {
  std::string prefix;
  {
    std::lock_guard<std::mutex> lk(mu_);
    rec.state = JobState::kRunning;
    rec.started = now();
    // Exchange keys are namespaced by the job's durable identity (jid
    // when journaled, else the in-memory id) and, past epoch 0, by the
    // run epoch — so a crash re-run or job retry never reads the dead
    // attempt's partial publishes. Epoch 0 keeps the legacy prefix.
    prefix = "job-" + std::to_string(rec.jid != 0 ? rec.jid : rec.id);
    if (rec.epoch > 0) prefix += "e" + std::to_string(rec.epoch);
    if (options_.journal != nullptr && rec.jid != 0) {
      const Status journaled = options_.journal->append_start(rec.jid, rec.epoch);
      (void)journaled;  // best effort: a lost START degrades to resubmit
    }
  }
  prefix += "/" + (rec.pruned != nullptr ? rec.pruned->dag : rec.sub.dag).name();
  // A throw must still reach a terminal state: a pool task's exception
  // would otherwise vanish with its discarded future.
  Result<exec::EngineResult> result = Status::internal("engine run threw");
  try {
    result = run_engine(rec, prefix);
  } catch (const std::exception& e) {
    result = Status::internal(std::string("engine run threw: ") + e.what());
  } catch (...) {
  }
  finish_run(rec, std::move(result));
  // `rec` may be queued again for a retry by now: only the prefix and
  // the cache are touched below. Removes go through the service's own
  // store; a leaked object costs memory, never answers.
  for (const std::string& key : store_->list(prefix + "/")) (void)store_->remove(key);
  if (cache_ != nullptr && options_.persist_cache) {
    // Best effort: a torn save degrades to skipped entries at the next
    // load, never to wrong answers.
    const Status saved = cache_->save(*store_);
    (void)saved;
  }
}

Result<exec::EngineResult> JobService::run_engine(JobRecord& rec,
                                                  const std::string& exchange_prefix) {
  // rec.pruned and rec.plan are stable for the whole run: only the
  // dispatcher's commit writes them, and only while the job queues.
  const PrunedRun* pruned = rec.pruned.get();
  const JobDag& run_dag = pruned != nullptr ? pruned->dag : rec.sub.dag;
  const JobDag& run_model = pruned != nullptr ? pruned->model : rec.sub.model_dag;
  exec::EngineOptions opts;
  opts.resilience = rec.sub.resilience;
  opts.pools = &pools_;
  opts.exchange_prefix = exchange_prefix;
  opts.cancel = &rec.cancel_token;
  opts.profiles = &profiles_;
  opts.plan_fingerprint = structural_fingerprint(run_model);
  const ExecTimePredictor predictor(run_model);
  const ColocatedFn colocated = rec.plan.colocated_fn();
  opts.predicted_stage_seconds.resize(run_model.num_stages(), 0.0);
  for (StageId s = 0; s < run_model.num_stages(); ++s) {
    opts.predicted_stage_seconds[s] =
        predictor.stage_time(s, std::max(1, rec.plan.dop_of(s)), colocated);
  }
  if (cache_ != nullptr && rec.sub.cache_id.enabled() && pruned != nullptr) {
    opts.capture_stages = pruned->capture_stages;
  } else if (cache_ != nullptr && rec.sub.cache_id.enabled()) {
    // Every non-sink stage, except those feeding a gather edge (their
    // outputs cannot be replayed).
    const std::vector<bool> gather_out = feeds_gather(run_dag);
    for (StageId s = 0; s < run_dag.num_stages(); ++s) {
      if (!run_dag.children(s).empty() && !gather_out[s]) opts.capture_stages.push_back(s);
    }
  }
  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<faults::FlakyStore> flaky;
  if (rec.sub.faults.any()) {
    injector = std::make_unique<faults::FaultInjector>(rec.sub.faults);
    flaky = std::make_unique<faults::FlakyStore>(*store_, *injector);
    opts.injector = injector.get();
  }
  exec::MiniEngine engine(run_dag, rec.plan,
                          flaky != nullptr ? static_cast<storage::ObjectStore&>(*flaky) : *store_,
                          opts);
  auto result = engine.run(pruned != nullptr ? pruned->bindings : rec.sub.bindings);
  if (!result.ok() || pruned == nullptr) return result;
  // Outputs go back into the submission's stage ids, with the cached
  // sinks the pruning dropped, so callers (and the persisted sink
  // layout) never see pruned ids.
  const auto to_old = [pruned](std::map<StageId, exec::Table>& outputs,
                               std::map<StageId, exec::Table> remapped) {
    for (auto& [ns, table] : outputs) remapped.emplace(pruned->to_old.at(ns), std::move(table));
    outputs = std::move(remapped);
  };
  to_old(result->sink_outputs, pruned->cached_sinks);
  to_old(result->captured_outputs, {});
  return result;
}

void JobService::finish_run(JobRecord& rec, Result<exec::EngineResult> result) {
  if (result.ok()) {
    // Durable answers: sink bytes are persisted before the FINISH
    // transition is journaled, so "journal says DONE" implies they
    // survived. A failed persist fails (retriably, if UNAVAILABLE).
    const bool cache_on = cache_ != nullptr && rec.sub.cache_id.enabled();
    SinkBytes bytes;
    for (const auto& [stage, table] : result->sink_outputs) {
      if (options_.persist_sinks || cache_on) bytes.emplace_back(stage, serialize_payload(table));
    }
    const Status persisted = persist_sinks(rec.sub.label, bytes);
    if (persisted.is_ok()) {
      if (cache_on) {
        // The whole run's slot-seconds ride along so a later hit can
        // report what it saved.
        const double slot_secs = plan_slots(rec.plan) * result->stats.wall_seconds;
        for (const auto& [stage, payload] : bytes) {
          cache_->insert(rec.sub.cache_id, stage, payload, slot_secs);
        }
        for (const auto& [stage, table] : result->captured_outputs) {
          cache_->insert(rec.sub.cache_id, stage, serialize_payload(table), slot_secs);
        }
      }
      publish_done(rec, std::move(result->sink_outputs), bytes, result->stats,
                   /*from_cache=*/false);
      return;
    }
    result = persisted;
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (result.status().code() == StatusCode::kCancelled) {
    const Status why =
        rec.pending_stop.is_ok() ? Status::cancelled("cancelled by caller") : rec.pending_stop;
    finish_job_locked(rec,
                      why.code() == StatusCode::kDeadlineExceeded ? JobState::kFailed
                                                                  : JobState::kCancelled,
                      why);
  } else if (faults::RetryPolicy::retriable(result.status().code()) &&
             rec.attempt < rec.sub.job_attempts &&
             !rec.cancel_token.load(std::memory_order_acquire)) {
    // Whole-job retry: release everything and go straight back on the
    // queue behind a capped jittered backoff, to re-run under a fresh
    // epoch.
    release_resources_locked(rec);
    rec.earliest_admit =
        now() + rec.sub.job_backoff.backoff(rec.attempt, faults::site_salt(rec.sub.label.c_str()));
    ++rec.attempt;
    ++rec.epoch;
    rec.state = JobState::kQueued;
    enqueue_locked(rec.id, rec.sub.tier);
    obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
    if (mx.enabled()) mx.counter("service.job_retries", {{"tier", rec.sub.tier}}).add();
  } else {
    finish_job_locked(rec, JobState::kFailed, result.status());
  }
  wake_dispatcher_locked();
  lk.unlock();
  state_cv_.notify_all();
}

void JobService::serve_from_cache(JobRecord& rec, CacheServe hit, bool from_queue) {
  // Durability first: a hit must leave the same on-store sink bytes a
  // cold run would, or recovery's convergence contract breaks. When the
  // persist fails the job runs cold instead, and that run's own persist
  // retries under job_attempts.
  const Status persisted = persist_sinks(rec.sub.label, hit.bytes);
  if (!persisted.is_ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    rec.state = JobState::kQueued;
    rec.admitted = rec.started = 0.0;
    rec.skip_whole_hit = true;
    enqueue_locked(rec.id, rec.sub.tier, from_queue);
    return;
  }
  cache_->note_hit(hit.slot_seconds);
  obs::TraceCollector& tc = obs::TraceCollector::global();
  if (tc.enabled()) {
    tc.instant("service", "cache.hit", static_cast<std::uint64_t>(now() * 1e6), -1,
               static_cast<std::int64_t>(rec.id), {{"job", rec.sub.label}});
  }
  publish_done(rec, std::move(hit.sinks), hit.bytes, exec::EngineStats{}, /*from_cache=*/true);
}

void JobService::publish_done(JobRecord& rec, std::map<StageId, exec::Table> sinks,
                              const SinkBytes& bytes, exec::EngineStats stats,
                              bool from_cache) {
  // Releasing the in-flight registration first closes the follower
  // list: a later identical arrival queues, and finds the cache warm.
  std::vector<JobRecord*> followers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    release_inflight_locked(rec);
    for (const JobId fid : rec.followers) {
      // Served from here on: as for a running job, a cancel or a
      // deadline no longer ends the follower before its DONE.
      JobRecord& f = *jobs_.at(fid);
      f.leader = 0;
      f.dedup_leader = rec.id;
      f.state = JobState::kAdmitted;
      f.admitted = f.started = now();
      followers.push_back(&f);
    }
    rec.followers.clear();
  }
  // Each follower owes the store the same sink bytes a solo run would
  // have written: the leader's, shared.
  std::vector<Status> persisted;
  for (const JobRecord* f : followers) persisted.push_back(persist_sinks(f->sub.label, bytes));
  {
    std::lock_guard<std::mutex> lk(mu_);
    rec.sinks = std::move(sinks);
    rec.stats = stats;
    if (from_cache) {
      rec.from_cache = rec.cache_counted = true;
      rec.reused_stages = bytes.size();
    }
    finish_job_locked(rec, JobState::kDone, Status::ok());
    obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
    for (std::size_t i = 0; i < followers.size(); ++i) {
      JobRecord& f = *followers[i];
      if (mx.enabled()) mx.counter("service.dedup_served", {{"tier", f.sub.tier}}).add();
      if (!persisted[i].is_ok()) {
        finish_job_locked(f, JobState::kFailed, persisted[i]);
        continue;
      }
      f.sinks = rec.sinks;
      f.from_cache = true;
      f.reused_stages = f.sinks.size();
      finish_job_locked(f, JobState::kDone, Status::ok());
    }
    wake_dispatcher_locked();
  }
  state_cv_.notify_all();
}

Status JobService::persist_sinks(const std::string& label, const SinkBytes& sinks) {
  if (!options_.persist_sinks) return Status::ok();
  for (const auto& [stage, bytes] : sinks) {
    DITTO_RETURN_IF_ERROR(
        store_->put_payload("sinks/" + label + "/stage-" + std::to_string(stage), bytes));
  }
  return Status::ok();
}

void JobService::finish_job_locked(JobRecord& rec, JobState state, Status error) {
  if (rec.leader != 0) {  // a follower leaves its leader's list
    auto& fs = jobs_.at(rec.leader)->followers;
    fs.erase(std::remove(fs.begin(), fs.end(), rec.id), fs.end());
    rec.leader = 0;
  }
  rec.state = state;
  rec.error = std::move(error);
  rec.finished = now();
  release_resources_locked(rec);
  last_finish_ = std::max(last_finish_, rec.finished);
  slot_seconds_at_last_finish_ = ledger_.slot_seconds();
  if (options_.journal != nullptr && rec.jid != 0) {
    const Status journaled = options_.journal->append_finish(
        rec.jid, job_state_name(rec.state), rec.error.message());
    (void)journaled;  // best effort: a lost FINISH costs one safe re-run
  }
  observe_terminal_locked(rec);
  resolve_followers_locked(rec);
}

void JobService::release_inflight_locked(JobRecord& rec) {
  if (!rec.inflight_registered) return;
  const auto it = inflight_.find(rec.sub.cache_id);
  if (it != inflight_.end() && it->second == rec.id) inflight_.erase(it);
  rec.inflight_registered = false;
}

void JobService::resolve_followers_locked(JobRecord& rec) {
  release_inflight_locked(rec);
  const std::vector<JobId> followers = std::move(rec.followers);
  rec.followers.clear();
  // Recursion is depth-1: followers have no followers of their own.
  JobId promoted = 0;
  for (const JobId fid : followers) {
    JobRecord& f = *jobs_.at(fid);
    if (is_terminal(f.state)) continue;
    if (rec.state == JobState::kFailed) {
      // Followers inherit the leader's exact failure Status.
      f.leader = 0;
      f.dedup_leader = rec.id;
      finish_job_locked(f, JobState::kFailed, rec.error);
    } else if (promoted == 0) {
      // Cancelled leader: its cancellation is not the followers' — the
      // first live follower is promoted to a fresh leader and queued.
      promoted = fid;
      f.leader = 0;
      inflight_[f.sub.cache_id] = fid;
      f.inflight_registered = true;
      enqueue_locked(fid, f.sub.tier);
    } else {
      f.leader = promoted;
      jobs_.at(promoted)->followers.push_back(fid);
    }
  }
}

void JobService::observe_terminal_locked(const JobRecord& rec) {
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  const char* policy = admission_policy_name(options_.admission.policy);
  if (mx.enabled()) {
    const obs::MetricLabels labels{{"policy", policy},
                                   {"state", job_state_name(rec.state)}};
    mx.counter("service.jobs", labels).add();
    mx.gauge("service.running_jobs", {{"policy", policy}})
        .set(static_cast<double>(running_jobs_));
    if (rec.state == JobState::kDone) {
      const obs::MetricLabels plabels{{"policy", policy}};
      mx.histogram("service.queueing_seconds", 0.0, 60.0, 60, plabels)
          .observe(rec.started - rec.submitted);
      mx.histogram("service.jct_seconds", 0.0, 600.0, 60, plabels)
          .observe(rec.finished - rec.submitted);
    }
  }
  obs::TraceCollector& tc = obs::TraceCollector::global();
  if (tc.enabled()) {
    // One span per job on the job-level track (pid -1), covering
    // submission to terminal state, labeled for the viewer.
    const auto us = [](Seconds s) { return static_cast<std::uint64_t>(s * 1e6); };
    tc.span("service.job", rec.sub.label, us(rec.submitted), us(rec.finished - rec.submitted), -1,
            static_cast<std::int64_t>(rec.id),
            {{"state", job_state_name(rec.state)},
             {"policy", policy},
             {"queueing_s", std::to_string(std::max(0.0, rec.started - rec.submitted))}});
  }
}

void JobService::release_resources_locked(JobRecord& rec) {
  if (rec.lease.active()) {
    const Status released = rec.lease.release();
    (void)released;  // ledger-validated; cannot fail for an active lease
    --running_jobs_;
  }
  for (std::size_t v = 0; v < rec.arena_charge.size(); ++v) {
    if (rec.arena_charge[v] > 0) cluster_->server(v).arena().release(rec.arena_charge[v]);
  }
  rec.arena_charge.clear();
}

std::vector<JobService::JobSnapshotRow> JobService::jobs_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<JobSnapshotRow> rows;
  rows.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) {
    JobSnapshotRow row;
    row.id = rec->id;
    row.label = rec->sub.label;
    row.state = rec->state;
    if (!rec->error.is_ok()) row.error = rec->error.message();
    row.submitted = rec->submitted;
    row.started = rec->started;
    row.finished = rec->finished;
    row.slots_granted = plan_slots(rec->plan);
    rows.push_back(std::move(row));
  }
  return rows;
}

JobOutcome JobService::outcome_of_locked(const JobRecord& rec) const {
  JobOutcome out;
  out.id = rec.id;
  out.label = rec.sub.label;
  out.state = rec.state;
  out.error = rec.error;
  out.submitted = rec.submitted;
  out.admitted = rec.admitted;
  out.started = rec.started;
  out.finished = rec.finished;
  out.slots_granted = plan_slots(rec.plan);
  out.plan = rec.plan;
  out.sink_outputs = rec.sinks;
  out.stats = rec.stats;
  out.tier = rec.sub.tier;
  out.attempts = rec.attempt;
  out.epoch = rec.epoch;
  out.jid = rec.jid;
  out.from_cache = rec.from_cache;
  out.dedup_leader = rec.dedup_leader;
  out.reused_stages = rec.reused_stages;
  return out;
}

}  // namespace ditto::service
