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

/// Serialized sink tables in stage order: the bytes the store's sink
/// objects and the cache hold.
using SinkBytes = std::vector<std::pair<StageId, std::shared_ptr<const std::string>>>;

SinkBytes serialize_sinks(const std::map<StageId, exec::Table>& sinks) {
  SinkBytes out;
  for (const auto& [stage, table] : sinks) {
    out.emplace_back(stage,
                     std::make_shared<const std::string>(exec::serialize_table(table).view()));
  }
  return out;
}

/// Durable answers: one `sinks/<label>/stage-<id>` object per sink,
/// stopping at the first failed put.
Status put_sinks(storage::ObjectStore& store, const std::string& label, const SinkBytes& sinks) {
  for (const auto& [stage, bytes] : sinks) {
    DITTO_RETURN_IF_ERROR(
        store.put("sinks/" + label + "/stage-" + std::to_string(stage), *bytes));
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

JobService::JobService(cluster::Cluster& cluster, storage::ObjectStore& store,
                       ServiceOptions options)
    : cluster_(&cluster),
      store_(&store),
      options_(std::move(options)),
      ledger_(cluster),
      pools_(slot_widths(cluster)) {
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
  }
  dispatch_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher joins runners as they finish; anything still
  // unjoined after its exit is collected here.
  for (auto& [id, rec] : jobs_) {
    if (rec->runner.joinable()) rec->runner.join();
  }
}

Result<JobId> JobService::submit(JobSubmission sub) {
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
  JobId id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (intake_closed_) {
      return Status::failed_precondition("job service is draining; intake closed");
    }
    // Result-cache pre-probe. A whole-job hit is served without a queue
    // slot and an in-flight duplicate attaches to its leader, so
    // neither participates in overload shedding below.
    const bool cache_on = cache_ != nullptr && sub.cache_id.enabled();
    bool whole_hit = false;
    JobId leader_id = 0;
    if (cache_on) {
      whole_hit = true;
      bool any_sink = false;
      for (StageId s = 0; s < sub.dag.num_stages(); ++s) {
        if (!sub.dag.children(s).empty()) continue;
        any_sink = true;
        if (!cache_->contains(sub.cache_id, s)) {
          whole_hit = false;
          break;
        }
      }
      if (!any_sink) whole_hit = false;
      if (!whole_hit) {
        const auto in = inflight_.find(sub.cache_id);
        if (in != inflight_.end()) {
          const auto lit = jobs_.find(in->second);
          if (lit != jobs_.end() && !is_terminal(lit->second->state)) leader_id = in->second;
        }
      }
    }
    if (!whole_hit && leader_id == 0 && options_.max_queue_depth > 0 &&
        queue_.size() >= options_.max_queue_depth) {
      obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
      // Overload: shed the newest queued batch-tier job to make room
      // for a latency-tier arrival; otherwise fast-reject the arrival.
      const auto victim =
          sub.tier == "latency"
              ? std::find_if(queue_.rbegin(), queue_.rend(),
                             [&](JobId qid) { return jobs_.at(qid)->sub.tier != "latency"; })
              : queue_.rend();
      if (victim == queue_.rend()) {
        if (mx.enabled()) mx.counter("service.rejected_jobs", {{"tier", sub.tier}}).add();
        return Status::resource_exhausted(
            "admission queue full (" + std::to_string(queue_.size()) + " jobs)");
      }
      JobRecord& shed = *jobs_.at(*victim);
      queue_.erase(std::next(victim).base());
      if (mx.enabled()) mx.counter("service.shed_jobs", {{"tier", shed.sub.tier}}).add();
      finish_job_locked(shed, JobState::kFailed,
                        Status::resource_exhausted("shed under overload (batch tier, queue "
                                                   "full at depth " +
                                                   std::to_string(options_.max_queue_depth) +
                                                   ")"));
    }
    id = next_id_++;
    auto rec = std::make_unique<JobRecord>();
    rec->id = id;
    rec->sub = std::move(sub);
    if (rec->sub.label.empty()) rec->sub.label = "job-" + std::to_string(id);
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
    if (first_submit_ < 0.0) {
      first_submit_ = rec->submitted;
      slot_seconds_at_first_submit_ = ledger_.slot_seconds();
    }
    const std::string tier = rec->sub.tier;
    JobRecord* raw = rec.get();
    jobs_.emplace(id, std::move(rec));
    if (whole_hit && try_serve_from_cache_locked(*raw)) {
      // Served DONE straight from cached sink bytes; never queued, no
      // engine slots occupied.
    } else if (leader_id != 0) {
      // In-flight dedupe: attach as a follower; the leader's terminal
      // transition resolves us (result copy, failure, or promotion).
      raw->leader = leader_id;
      jobs_.at(leader_id)->followers.push_back(id);
      obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
      if (mx.enabled()) mx.counter("service.dedup_followers", {{"tier", tier}}).add();
      obs::TraceCollector& tc = obs::TraceCollector::global();
      if (tc.enabled()) {
        tc.instant("service", "dedup.attach", static_cast<std::uint64_t>(now() * 1e6), -1,
                   static_cast<std::int64_t>(id),
                   {{"leader", std::to_string(leader_id)}});
      }
    } else {
      if (cache_on) {
        inflight_[raw->sub.cache_id] = id;
        raw->inflight_registered = true;
      }
      enqueue_locked(id, tier);
      note_queue_locked();
    }
  }
  dispatch_cv_.notify_all();
  state_cv_.notify_all();  // a shed job may have just turned terminal
  return id;
}

void JobService::enqueue_locked(JobId id, const std::string& tier) {
  if (tier == "latency") {
    const auto it = std::find_if(queue_.begin(), queue_.end(), [&](JobId qid) {
      return jobs_.at(qid)->sub.tier != "latency";
    });
    queue_.insert(it, id);
  } else {
    queue_.push_back(id);
  }
}

void JobService::note_queue_locked() {
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (!mx.enabled()) return;
  mx.gauge("service.queue_depth",
           {{"policy", admission_policy_name(options_.admission.policy)}})
      .set(static_cast<double>(queue_.size()));
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
    lk.unlock();
    state_cv_.notify_all();
    dispatch_cv_.notify_all();
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
  std::unique_lock<std::mutex> lk(mu_);
  intake_closed_ = true;
  dispatch_cv_.notify_all();
  state_cv_.wait(lk, [&] {
    for (const auto& [id, rec] : jobs_) {
      if (!is_terminal(rec->state)) return false;
    }
    return queue_.empty() && runners_saving_ == 0;
  });
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
  for (;;) {
    // Join runner threads that have finished.
    while (!finished_unjoined_.empty()) {
      const JobId id = finished_unjoined_.back();
      finished_unjoined_.pop_back();
      std::thread t = std::move(jobs_.at(id)->runner);
      lk.unlock();
      if (t.joinable()) t.join();
      lk.lock();
    }

    expire_deadlines_locked();
    admit_batch_locked();

    if (stop_dispatcher_ && queue_.empty() && running_jobs_ == 0 &&
        finished_unjoined_.empty()) {
      break;
    }

    // Sleep until woken (submit / completion / cancel / stop), the
    // earliest pending deadline, or the earliest retry-backoff gate,
    // whichever comes first.
    double next_deadline = 0.0;
    for (const auto& [id, rec] : jobs_) {
      if (is_terminal(rec->state) || rec->deadline_at <= 0.0) continue;
      // Once the cancel token is set there is nothing left for the
      // dispatcher to do about this deadline — the runner observes the
      // token and notifies on completion. This covers kAdmitted too: a
      // deadline can expire in the window after admission but before
      // the runner thread takes mu_ and flips the state to kRunning.
      if (rec->cancel_token.load()) continue;
      if (next_deadline <= 0.0 || rec->deadline_at < next_deadline) {
        next_deadline = rec->deadline_at;
      }
    }
    const double t_gate = now();
    for (const JobId qid : queue_) {
      const double gate = jobs_.at(qid)->earliest_admit;
      if (gate > t_gate && (next_deadline <= 0.0 || gate < next_deadline)) {
        next_deadline = gate;
      }
    }
    if (next_deadline > 0.0) {
      // Clamp below by 1 ms: even if some non-terminal job's deadline
      // is already past (it will be expired or cancelled on the next
      // pass), the dispatcher must release mu_ before looping so runner
      // threads blocked on it can make progress — re-looping while
      // holding the lock live-locks the whole service.
      const double wait = std::max(1e-3, next_deadline - now());
      dispatch_cv_.wait_for(lk, std::chrono::duration<double>(wait));
    } else {
      dispatch_cv_.wait(lk);
    }
  }
}

void JobService::expire_deadlines_locked() {
  const double t = now();
  // Queued jobs past their deadline fail without ever running.
  for (auto it = queue_.begin(); it != queue_.end();) {
    JobRecord& rec = *jobs_.at(*it);
    if (rec.deadline_at > 0.0 && t >= rec.deadline_at) {
      it = queue_.erase(it);
      note_queue_locked();
      finish_job_locked(rec, JobState::kFailed,
                        Status::deadline_exceeded("deadline expired after " +
                                                  std::to_string(rec.sub.deadline) +
                                                  " s in queue"));
      state_cv_.notify_all();
    } else {
      ++it;
    }
  }
  // Dedupe followers live outside queue_ (state QUEUED, attached to a
  // leader): their deadlines expire here, detaching them on the way out.
  for (const auto& [id, rec] : jobs_) {
    if (rec->state != JobState::kQueued || rec->leader == 0) continue;
    if (rec->deadline_at <= 0.0 || t < rec->deadline_at) continue;
    finish_job_locked(*rec, JobState::kFailed,
                      Status::deadline_exceeded("deadline expired after " +
                                                std::to_string(rec->sub.deadline) +
                                                " s waiting on deduplicated leader"));
    state_cv_.notify_all();
  }
  // Running jobs past their deadline get a cooperative stop; the runner
  // maps the engine's CANCELLED into FAILED/DEADLINE_EXCEEDED.
  for (const auto& [id, rec] : jobs_) {
    if (rec->state != JobState::kRunning && rec->state != JobState::kAdmitted) continue;
    if (rec->deadline_at <= 0.0 || t < rec->deadline_at) continue;
    if (rec->cancel_token.load(std::memory_order_acquire)) continue;
    if (rec->pending_stop.is_ok()) {
      rec->pending_stop = Status::deadline_exceeded(
          "deadline expired after " + std::to_string(rec->sub.deadline) + " s");
    }
    rec->cancel_token.store(true, std::memory_order_release);
  }
}

std::size_t JobService::admit_batch_locked() {
  if (queue_.empty()) return 0;
  const double t = now();
  std::size_t eligible = 0;
  for (const JobId qid : queue_) {
    if (jobs_.at(qid)->earliest_admit <= t) ++eligible;
  }
  if (eligible == 0) return 0;  // everyone is backing off

  // Batched admission: ONE ledger snapshot for the whole drainable
  // prefix. Each admitted job's demand is deducted from the local view,
  // so the batch plans against consistent numbers without re-reading
  // the ledger per job — one elastic planning pass per wakeup instead
  // of one per arrival.
  std::vector<int> free = ledger_.free_snapshot();
  int leased = ledger_.outstanding_total();
  const int total = ledger_.total_slots();

  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    const obs::MetricLabels labels{
        {"policy", admission_policy_name(options_.admission.policy)}};
    mx.counter("service.admission_passes", labels).add();
    mx.histogram("service.admission_batch", 0.0, 64.0, 32, labels)
        .observe(static_cast<double>(eligible));
  }

  std::size_t progressed = 0;
  for (;;) {
    // The effective head is the first job whose retry-backoff gate has
    // passed; jobs still backing off are overtaken, everything else
    // stays strict FIFO (no fit-based overtaking).
    const auto head_it = std::find_if(queue_.begin(), queue_.end(), [&](JobId qid) {
      return jobs_.at(qid)->earliest_admit <= t;
    });
    if (head_it == queue_.end()) break;
    JobRecord& rec = *jobs_.at(*head_it);
    const bool cache_on = cache_ != nullptr && rec.sub.cache_id.enabled();

    // A whole-job hit may have materialized while this job queued (an
    // identical job finished ahead of it): serve it slot-free.
    if (cache_on && try_serve_from_cache_locked(rec)) {
      queue_.erase(head_it);
      note_queue_locked();
      state_cv_.notify_all();
      ++progressed;
      continue;
    }

    const std::vector<int> offer = admission_offer(options_.admission, free, total, leased);
    if (offer.empty()) break;  // policy says wait

    // The cluster is maximally available when nothing is leased — if
    // the head cannot be planned against THIS offer it never will be,
    // so fail it instead of head-blocking the queue forever.
    const bool maximal_offer = leased == 0;

    // Partial hit: prune cached upstream stages before planning so the
    // scheduler sizes only the work that actually runs.
    if (cache_on && rec.pruned == nullptr && rec.attempt <= 1) {
      build_pruned_run_locked(rec);
    }
    const JobDag& model = rec.pruned != nullptr ? rec.pruned->model : rec.sub.model_dag;

    const cluster::Cluster view = cluster::Cluster::from_slots(offer);
    scheduler::DittoScheduler sched;
    auto plan = sched.schedule(model, view, rec.sub.objective, options_.external);
    if (!plan.ok()) {
      if (maximal_offer) {
        queue_.erase(head_it);
        note_queue_locked();
        finish_job_locked(rec, JobState::kFailed,
                          Status::unavailable("job does not fit the cluster under policy " +
                                              std::string(admission_policy_name(
                                                  options_.admission.policy)) +
                                              ": " + plan.status().message()));
        state_cv_.notify_all();
        ++progressed;
        continue;
      }
      break;  // wait for completions to widen the offer
    }

    // Deadline infeasibility: the plan's own time model says this job
    // cannot make its deadline — fail fast instead of running doomed.
    if (options_.reject_infeasible && rec.deadline_at > 0.0 &&
        plan->predicted.jct > rec.deadline_at - now()) {
      if (maximal_offer) {
        queue_.erase(head_it);
        note_queue_locked();
        std::ostringstream why;
        why << "infeasible: predicted JCT " << plan->predicted.jct
            << " s exceeds remaining deadline " << std::max(0.0, rec.deadline_at - now())
            << " s";
        finish_job_locked(rec, JobState::kFailed, Status::deadline_exceeded(why.str()));
        state_cv_.notify_all();
        ++progressed;
        continue;
      }
      break;  // a wider offer after completions may still make it
    }

    const std::vector<int> demand =
        cluster::slot_demand(plan->placement, cluster_->num_servers());
    auto lease = ledger_.acquire(demand);
    if (!lease.ok()) break;  // cannot happen under mu_; be safe

    // Charge the job's modeled shared-memory footprint per server.
    std::vector<Bytes> charge = arena_demand(model, plan->placement, cluster_->num_servers());
    bool arena_ok = true;
    for (std::size_t v = 0; v < charge.size(); ++v) {
      if (charge[v] == 0) continue;
      const Status st = cluster_->server(v).arena().reserve(charge[v]);
      if (!st.is_ok()) {
        // Unwind and either wait for memory or fail permanently.
        for (std::size_t u = 0; u < v; ++u) {
          if (charge[u] > 0) cluster_->server(u).arena().release(charge[u]);
        }
        const Status released = lease->release();
        (void)released;
        if (maximal_offer) {
          queue_.erase(head_it);
          note_queue_locked();
          finish_job_locked(rec, JobState::kFailed, st);
          state_cv_.notify_all();
          ++progressed;
        }
        arena_ok = false;
        break;
      }
    }
    if (!arena_ok) {
      if (maximal_offer) continue;  // progressed above; try the next head
      break;                        // wait for memory
    }

    rec.lease = std::move(*lease);
    rec.arena_charge = std::move(charge);
    rec.plan = std::move(plan->placement);
    rec.state = JobState::kAdmitted;
    rec.admitted = now();
    queue_.erase(head_it);
    note_queue_locked();
    if (options_.journal != nullptr && rec.jid != 0) {
      const Status journaled = options_.journal->append_admit(rec.jid);
      (void)journaled;  // best effort: a lost ADMIT only re-plans on recovery
    }
    ++running_jobs_;
    rec.runner = std::thread(&JobService::run_job, this, &rec);
    state_cv_.notify_all();
    // Deduct locally so the rest of the batch plans against what
    // remains of the snapshot.
    for (std::size_t v = 0; v < free.size() && v < demand.size(); ++v) {
      free[v] -= demand[v];
      leased += demand[v];
    }
    ++progressed;
  }
  return progressed;
}

bool JobService::try_serve_from_cache_locked(JobRecord& rec) {
  if (cache_ == nullptr || !rec.sub.cache_id.enabled()) return false;
  std::map<StageId, exec::Table> sinks;
  SinkBytes raw;
  double slot_seconds = 0.0;
  for (StageId s = 0; s < rec.sub.dag.num_stages(); ++s) {
    if (!rec.sub.dag.children(s).empty()) continue;
    auto cached = decode_cached(*cache_, rec.sub.cache_id, s);
    if (!cached.has_value()) return false;
    sinks.emplace(s, std::move(cached->table));
    raw.emplace_back(s, cached->hit.bytes);
    slot_seconds = std::max(slot_seconds, cached->hit.slot_seconds);
  }
  if (sinks.empty()) return false;
  // Durability first: a hit must leave the same on-store sink bytes a
  // cold run would, or recovery's convergence contract breaks. On
  // failure the job runs normally instead.
  if (options_.persist_sinks && !put_sinks(*store_, rec.sub.label, raw).is_ok()) return false;
  rec.admitted = now();
  rec.started = rec.admitted;
  rec.sinks = std::move(sinks);
  rec.from_cache = true;
  rec.cache_counted = true;
  rec.reused_stages = raw.size();
  cache_->note_hit(slot_seconds);
  obs::TraceCollector& tc = obs::TraceCollector::global();
  if (tc.enabled()) {
    tc.instant("service", "cache.hit", static_cast<std::uint64_t>(now() * 1e6), -1,
               static_cast<std::int64_t>(rec.id), {{"job", rec.sub.label}});
  }
  finish_job_locked(rec, JobState::kDone, Status::ok());
  return true;
}

void JobService::build_pruned_run_locked(JobRecord& rec) {
  const JobDag& dag = rec.sub.dag;
  const auto miss = [&] {
    if (!rec.cache_counted) {
      cache_->note_miss();
      rec.cache_counted = true;
    }
  };

  const std::vector<bool> gather_out = feeds_gather(dag);
  std::vector<bool> completed(dag.num_stages(), false);
  std::size_t ncomp = 0;
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    if (gather_out[s]) continue;
    if (cache_->contains(rec.sub.cache_id, s)) {
      completed[s] = true;
      ++ncomp;
    }
  }
  if (ncomp == 0) {
    miss();
    return;
  }

  auto pruning = prune_completed_stages(dag, completed);
  auto model_pruning = pruning.ok() ? prune_completed_stages(rec.sub.model_dag, completed)
                                    : Result<DagPruning>(pruning.status());
  if (!pruning.ok() || !model_pruning.ok()) {
    // e.g. "every sink completed" after a failed whole-hit serve, or a
    // gather edge the mask missed — run the full DAG.
    miss();
    return;
  }

  auto pr = std::make_unique<PrunedRun>();
  pr->dag = std::move(pruning->dag);
  pr->model = std::move(model_pruning->dag);
  pr->to_old = std::move(pruning->to_old);
  pr->is_replay = std::move(pruning->is_replay);
  double hit_slot_seconds = 0.0;

  // Remap a binding's per-consumer partition keys into pruned ids.
  const auto remap_edge_keys = [&](const exec::StageBinding& old_b, exec::StageBinding& b) {
    b.output_key = old_b.output_key;
    for (const auto& [consumer, key] : old_b.edge_keys) {
      if (consumer < pruning->to_new.size() && pruning->to_new[consumer] != kNoStage) {
        b.edge_keys[pruning->to_new[consumer]] = key;
      }
    }
  };

  for (StageId ns = 0; ns < pr->dag.num_stages(); ++ns) {
    const StageId old = pr->to_old[ns];
    const auto ob = rec.sub.bindings.find(old);
    exec::StageBinding b;
    if (pr->is_replay[ns]) {
      auto cached = decode_cached(*cache_, rec.sub.cache_id, old);
      if (!cached.has_value()) {  // raced an eviction: give up pruning
        miss();
        return;
      }
      hit_slot_seconds = std::max(hit_slot_seconds, cached->hit.slot_seconds);
      // Replay source: task 0 emits the cached table, the rest emit a
      // schema-preserving empty slice. The stable scatter then
      // reproduces the cold run's partitions byte-for-byte.
      auto shared = std::make_shared<exec::Table>(std::move(cached->table));
      b.fn = [shared](int task, int, const std::vector<exec::Table>&) -> Result<exec::Table> {
        if (task == 0) return *shared;
        return shared->slice(0, 0);
      };
      if (ob != rec.sub.bindings.end()) remap_edge_keys(ob->second, b);
    } else {
      if (ob == rec.sub.bindings.end()) {
        miss();
        return;
      }
      b.fn = ob->second.fn;
      remap_edge_keys(ob->second, b);
    }
    pr->bindings.emplace(ns, std::move(b));
  }

  // Completed sinks were dropped from the pruned DAG entirely; decode
  // them now and merge into the outcome after the run.
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    if (!completed[s] || !dag.children(s).empty()) continue;
    auto cached = decode_cached(*cache_, rec.sub.cache_id, s);
    if (!cached.has_value()) {
      miss();
      return;
    }
    hit_slot_seconds = std::max(hit_slot_seconds, cached->hit.slot_seconds);
    pr->cached_sinks.emplace(s, std::move(cached->table));
  }

  // Surviving non-sink stages are re-captured so a later identical
  // submission upgrades to a whole-job hit.
  for (StageId ns = 0; ns < pr->dag.num_stages(); ++ns) {
    if (pr->is_replay[ns]) continue;
    if (pr->dag.children(ns).empty()) continue;  // sinks return anyway
    if (!gather_out[pr->to_old[ns]]) pr->capture_stages.push_back(ns);
  }

  pr->reused_stages = ncomp;
  pr->slot_seconds_estimate = hit_slot_seconds * static_cast<double>(ncomp) /
                              static_cast<double>(dag.num_stages());
  cache_->note_partial_hit(pr->slot_seconds_estimate);
  rec.cache_counted = true;
  rec.reused_stages = pr->reused_stages;
  obs::TraceCollector& tc = obs::TraceCollector::global();
  if (tc.enabled()) {
    tc.instant("service", "cache.partial_hit", static_cast<std::uint64_t>(now() * 1e6), -1,
               static_cast<std::int64_t>(rec.id),
               {{"job", rec.sub.label}, {"reused_stages", std::to_string(ncomp)}});
  }
  rec.pruned = std::move(pr);
}

void JobService::run_job(JobRecord* rec) {
  exec::EngineOptions opts;
  storage::ObjectStore* store = store_;
  // A partial cache hit swaps in the pruned DAG/model/bindings built at
  // admission; rec->pruned is stable for the whole run (only the
  // dispatcher writes it, and only while the job is queued).
  const PrunedRun* pruned = rec->pruned.get();
  const JobDag& run_dag = pruned != nullptr ? pruned->dag : rec->sub.dag;
  const JobDag& run_model = pruned != nullptr ? pruned->model : rec->sub.model_dag;
  const std::map<StageId, exec::StageBinding>& run_bindings =
      pruned != nullptr ? pruned->bindings : rec->sub.bindings;
  bool cache_on = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    rec->state = JobState::kRunning;
    rec->started = now();
    cache_on = cache_ != nullptr && rec->sub.cache_id.enabled();
    opts.resilience = rec->sub.resilience;
    opts.pools = &pools_;
    // Exchange keys are namespaced by the job's durable identity (jid
    // when journaled, else the in-memory id) and, past epoch 0, by the
    // run epoch — so a crash re-run or job retry never reads the dead
    // attempt's partial publishes. Epoch 0 keeps the legacy prefix.
    const std::uint64_t eid = rec->jid != 0 ? rec->jid : rec->id;
    std::string prefix = "job-" + std::to_string(eid);
    if (rec->epoch > 0) prefix += "e" + std::to_string(rec->epoch);
    opts.exchange_prefix = prefix + "/" + run_dag.name();
    opts.cancel = &rec->cancel_token;
    if (options_.journal != nullptr && rec->jid != 0) {
      const Status journaled = options_.journal->append_start(rec->jid, rec->epoch);
      (void)journaled;  // best effort: a lost START degrades to resubmit
    }
    opts.profiles = &profiles_;
    opts.plan_fingerprint = structural_fingerprint(run_model);
    const ExecTimePredictor predictor(run_model);
    const ColocatedFn colocated = rec->plan.colocated_fn();
    opts.predicted_stage_seconds.resize(run_model.num_stages(), 0.0);
    for (StageId s = 0; s < run_model.num_stages(); ++s) {
      opts.predicted_stage_seconds[s] =
          predictor.stage_time(s, std::max(1, rec->plan.dop_of(s)), colocated);
    }
    if (cache_on) {
      // Capture intermediate outputs for the cache, except stages
      // feeding a gather edge (their outputs cannot be replayed).
      if (pruned != nullptr) {
        opts.capture_stages = pruned->capture_stages;
      } else {
        const std::vector<bool> gather_out = feeds_gather(run_dag);
        for (StageId s = 0; s < run_dag.num_stages(); ++s) {
          if (run_dag.children(s).empty() || gather_out[s]) continue;
          opts.capture_stages.push_back(s);
        }
      }
    }
    if (rec->sub.faults.any()) {
      rec->injector = std::make_unique<faults::FaultInjector>(rec->sub.faults);
      rec->flaky = std::make_unique<faults::FlakyStore>(*store_, *rec->injector);
      opts.injector = rec->injector.get();
      store = rec->flaky.get();
    }
  }
  state_cv_.notify_all();

  exec::MiniEngine engine(run_dag, rec->plan, *store, opts);
  auto result = engine.run(run_bindings);

  // Pruned run: translate outputs back into the submission's stage ids
  // and merge the cached sinks the pruning dropped, so callers (and the
  // persisted sink layout) never see pruned ids.
  if (result.ok() && pruned != nullptr) {
    std::map<StageId, exec::Table> sinks;
    for (auto& [ns, table] : result->sink_outputs) {
      sinks.emplace(pruned->to_old.at(ns), std::move(table));
    }
    for (const auto& [olds, table] : pruned->cached_sinks) sinks.emplace(olds, table);
    result->sink_outputs = std::move(sinks);
    std::map<StageId, exec::Table> captured;
    for (auto& [ns, table] : result->captured_outputs) {
      captured.emplace(pruned->to_old.at(ns), std::move(table));
    }
    result->captured_outputs = std::move(captured);
  }

  // Durable answers: persist sink bytes before the FINISH transition is
  // journaled, so "journal says DONE" implies the bytes survived. Done
  // outside mu_ — serialization and the put can be slow.
  Status persist_st = Status::ok();
  SinkBytes sink_bytes;
  if (result.ok() && (options_.persist_sinks || cache_on)) {
    sink_bytes = serialize_sinks(result->sink_outputs);
  }
  if (result.ok() && options_.persist_sinks) {
    persist_st = put_sinks(*store_, rec->sub.label, sink_bytes);
  }

  // Feed the cache (outside mu_ — serialization can be slow; the cache
  // has its own lock). Sinks and captured intermediates are stored in
  // submission ids; the whole run's slot-seconds ride along so a later
  // hit can report what it saved.
  if (result.ok() && persist_st.is_ok() && cache_on) {
    int slots = 0;
    for (const auto& row : rec->plan.task_server) slots += static_cast<int>(row.size());
    const double slot_secs = static_cast<double>(slots) * result->stats.wall_seconds;
    for (const auto& [stage, bytes] : sink_bytes) {
      cache_->insert(rec->sub.cache_id, stage, *bytes, slot_secs);
    }
    for (const auto& [stage, table] : result->captured_outputs) {
      const shm::Buffer bytes = exec::serialize_table(table);
      cache_->insert(rec->sub.cache_id, stage, std::string(bytes.view()), slot_secs);
    }
  }

  bool requeued = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (result.ok() && !persist_st.is_ok()) {
      // Completing with volatile results would break recovery's
      // contract; fail (retriably, if UNAVAILABLE) instead.
      result = persist_st;
    }
    if (result.ok()) {
      rec->sinks = std::move(result->sink_outputs);
      rec->stats = result->stats;
      finish_job_locked(*rec, JobState::kDone, Status::ok());
    } else if (result.status().code() == StatusCode::kCancelled) {
      const Status why =
          rec->pending_stop.is_ok() ? Status::cancelled("cancelled by caller") : rec->pending_stop;
      const JobState terminal = why.code() == StatusCode::kDeadlineExceeded
                                    ? JobState::kFailed
                                    : JobState::kCancelled;
      finish_job_locked(*rec, terminal, why);
    } else if (faults::RetryPolicy::retriable(result.status().code()) &&
               rec->attempt < rec->sub.job_attempts &&
               !rec->cancel_token.load(std::memory_order_acquire)) {
      // Whole-job retry: release everything, go back through admission
      // after a capped jittered backoff, re-run under a fresh epoch.
      release_resources_locked(*rec);
      --running_jobs_;
      const Seconds wait =
          rec->sub.job_backoff.backoff(rec->attempt, faults::site_salt(rec->sub.label.c_str()));
      rec->earliest_admit = now() + wait;
      ++rec->attempt;
      ++rec->epoch;
      rec->state = JobState::kQueued;
      rec->error = Status::ok();
      rec->sinks.clear();
      rec->stats = exec::EngineStats{};
      // Back on the queue only after the saves below, together with the
      // hand-off of this runner for joining: the dispatcher must join
      // this thread before it can admit the retry into `rec->runner`.
      requeued = true;
      obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
      if (mx.enabled()) {
        mx.counter("service.job_retries", {{"tier", rec->sub.tier}}).add();
      }
    } else {
      finish_job_locked(*rec, JobState::kFailed, result.status());
    }
    ++runners_saving_;
  }
  // Wake waiters and the dispatcher at the terminal (or requeue)
  // transition: the best-effort saves below must not delay the client
  // past JobOutcome::finished, nor other jobs' admission into the freed
  // slots.
  state_cv_.notify_all();
  dispatch_cv_.notify_all();
  if (cache_ != nullptr && options_.persist_cache) {
    // Outside mu_: the cache has its own lock and the object store is
    // thread-safe. Best effort: a torn save degrades to skipped entries
    // at the next load, never to wrong answers.
    const Status saved = cache_->save(*store_);
    (void)saved;
  }
  {
    // Only now is the runner joinable without blocking the dispatcher,
    // and only now may drain() return.
    std::lock_guard<std::mutex> lk(mu_);
    --runners_saving_;
    finished_unjoined_.push_back(rec->id);
    // A cancel during the saves already finished the job (kCancelled).
    if (requeued && rec->state == JobState::kQueued) {
      enqueue_locked(rec->id, rec->sub.tier);
      note_queue_locked();
    }
  }
  state_cv_.notify_all();
  dispatch_cv_.notify_all();
}

void JobService::finish_job_locked(JobRecord& rec, JobState state, Status error) {
  const bool was_active =
      rec.state == JobState::kAdmitted || rec.state == JobState::kRunning;
  if (rec.leader != 0) detach_follower_locked(rec);
  rec.state = state;
  rec.error = std::move(error);
  rec.finished = now();
  release_resources_locked(rec);
  if (was_active) --running_jobs_;
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

void JobService::resolve_followers_locked(JobRecord& rec) {
  if (rec.inflight_registered) {
    const auto it = inflight_.find(rec.sub.cache_id);
    if (it != inflight_.end() && it->second == rec.id) inflight_.erase(it);
    rec.inflight_registered = false;
  }
  if (rec.followers.empty()) return;
  const std::vector<JobId> followers = std::move(rec.followers);
  rec.followers.clear();
  // Recursion is depth-1: followers have no followers of their own.
  if (rec.state == JobState::kDone) {
    obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
    for (const JobId fid : followers) {
      const auto fit = jobs_.find(fid);
      if (fit == jobs_.end()) continue;
      JobRecord& f = *fit->second;
      if (is_terminal(f.state)) continue;
      f.leader = 0;
      f.admitted = now();
      f.started = f.admitted;
      f.sinks = rec.sinks;
      f.from_cache = true;
      f.dedup_leader = rec.id;
      f.reused_stages = f.sinks.size();
      // The follower owes the store the same sink bytes a solo run
      // would have written (tables are miniature; the puts are cheap
      // enough to hold mu_ across).
      const Status persist_st = options_.persist_sinks
                                    ? put_sinks(*store_, f.sub.label, serialize_sinks(f.sinks))
                                    : Status::ok();
      if (mx.enabled()) mx.counter("service.dedup_served", {{"tier", f.sub.tier}}).add();
      if (persist_st.is_ok()) {
        finish_job_locked(f, JobState::kDone, Status::ok());
      } else {
        f.sinks.clear();
        f.from_cache = false;
        finish_job_locked(f, JobState::kFailed, persist_st);
      }
    }
  } else if (rec.state == JobState::kFailed) {
    // Followers inherit the leader's exact failure Status.
    for (const JobId fid : followers) {
      const auto fit = jobs_.find(fid);
      if (fit == jobs_.end()) continue;
      JobRecord& f = *fit->second;
      if (is_terminal(f.state)) continue;
      f.leader = 0;
      f.dedup_leader = rec.id;
      finish_job_locked(f, JobState::kFailed, rec.error);
    }
  } else {
    // Cancelled leader: its cancellation is not the followers' — the
    // first live follower is promoted to a fresh leader and queued.
    JobId promoted = 0;
    for (const JobId fid : followers) {
      const auto fit = jobs_.find(fid);
      if (fit == jobs_.end()) continue;
      JobRecord& f = *fit->second;
      if (is_terminal(f.state)) continue;
      if (promoted == 0) {
        promoted = fid;
        f.leader = 0;
        if (cache_ != nullptr && f.sub.cache_id.enabled()) {
          inflight_[f.sub.cache_id] = fid;
          f.inflight_registered = true;
        }
        enqueue_locked(fid, f.sub.tier);
        note_queue_locked();
      } else {
        f.leader = promoted;
        jobs_.at(promoted)->followers.push_back(fid);
      }
    }
  }
}

void JobService::detach_follower_locked(JobRecord& rec) {
  const auto it = jobs_.find(rec.leader);
  if (it != jobs_.end()) {
    auto& fs = it->second->followers;
    fs.erase(std::remove(fs.begin(), fs.end(), rec.id), fs.end());
  }
  rec.leader = 0;
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
    tc.span("service.job", rec.sub.label.empty() ? ("job-" + std::to_string(rec.id))
                                                 : rec.sub.label,
            us(rec.submitted), us(rec.finished - rec.submitted), -1,
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
    for (const auto& ts : rec->plan.task_server) {
      row.slots_granted += static_cast<int>(ts.size());
    }
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
  out.slots_granted = 0;
  for (const auto& row : rec.plan.task_server) out.slots_granted += static_cast<int>(row.size());
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
