// JobService x ResultCache: whole-job hits (bit-identical, slot-free),
// input_version invalidation, partial hits through DAG pruning,
// in-flight dedupe (leader failure, follower cancel, promotion,
// concurrent races), warm-restart persistence, and journal interplay.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dag/dag_algorithms.h"
#include "exec/datagen.h"
#include "exec/operators.h"
#include "exec/serde.h"
#include "service/job_service.h"
#include "service/journal.h"
#include "storage/sim_store.h"
#include "support/tables.h"
#include "workload/physics.h"

namespace ditto::service {
namespace {

/// Deterministic scan -> agg -> final chain (all shuffle edges, so
/// every non-sink stage is cacheable) with an enabled cache identity.
/// `fail` makes the scan fail after its sleep; `sleep_seconds` keeps
/// the job in flight long enough for dedupe tests to attach followers.
JobSubmission make_cached_job(const std::string& label, const std::string& signature,
                              double sleep_seconds = 0.0, bool fail = false) {
  JobDag dag("cachedjob");
  const StageId scan = dag.add_stage("scan");
  const StageId agg = dag.add_stage("agg");
  const StageId fin = dag.add_stage("final");
  EXPECT_TRUE(dag.add_edge(scan, agg, ExchangeKind::kShuffle).is_ok());
  EXPECT_TRUE(dag.add_edge(agg, fin, ExchangeKind::kShuffle).is_ok());

  auto fact = std::make_shared<const exec::Table>(
      exec::gen_fact_table({.rows = 1200, .num_warehouses = 8, .seed = 17}));

  JobSubmission sub;
  sub.label = label;
  sub.dag = dag;
  sub.bindings[scan] = exec::StageBinding{
      [fact, sleep_seconds, fail](int task, int dop,
                                  const std::vector<exec::Table>&) -> Result<exec::Table> {
        if (sleep_seconds > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
        }
        if (fail) return Status::internal("injected scan failure");
        return exec::range_slice(fact, task, dop);
      },
      "warehouse_id"};
  sub.bindings[agg] = exec::StageBinding{
      [](int, int, const std::vector<exec::Table>& inputs) -> Result<exec::Table> {
        return exec::group_by(inputs.at(0), "warehouse_id",
                              {{exec::AggKind::kSum, "quantity", "qty"}});
      },
      "warehouse_id"};
  sub.bindings[fin] = exec::StageBinding{
      [](int, int, const std::vector<exec::Table>& inputs) -> Result<exec::Table> {
        return exec::group_by(inputs.at(0), "warehouse_id",
                              {{exec::AggKind::kSum, "qty", "qty_total"}});
      },
      ""};
  sub.keepalive = fact;

  JobDag model = dag;
  for (const StageId s : {scan, agg, fin}) {
    model.stage(s).set_input_bytes(64_MB);
    model.stage(s).set_output_bytes(32_MB);
  }
  workload::PhysicsParams physics;
  physics.store = storage::redis_model();
  workload::apply_physics(model, physics);
  sub.model_dag = std::move(model);

  sub.cache_id.plan_fingerprint = structural_fingerprint(sub.model_dag);
  sub.cache_id.input_signature = signature;
  return sub;
}

ServiceOptions cached_options(Bytes cache_bytes = 32_MB) {
  ServiceOptions opt;
  opt.admission.policy = AdmissionPolicy::kElastic;
  opt.external = storage::redis_model();
  opt.cache_bytes = cache_bytes;
  return opt;
}

std::string sink_bytes(const JobOutcome& outcome, StageId stage) {
  return *exec::serialize_table(outcome.sink_outputs.at(stage));
}

constexpr StageId kSink = 2;  ///< `final` in make_cached_job's DAG

TEST(ServiceCacheTest, CacheOffByDefault) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store);  // default options: cache_bytes = 0
  EXPECT_EQ(svc.result_cache(), nullptr);

  for (int i = 0; i < 2; ++i) {
    const auto id = svc.submit(make_cached_job("off-" + std::to_string(i), "sig"));
    ASSERT_TRUE(id.ok());
    const auto outcome = svc.wait(*id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
    EXPECT_FALSE(outcome->from_cache);
    EXPECT_EQ(outcome->reused_stages, 0u);
  }
}

TEST(ServiceCacheTest, WholeJobHitServesIdenticalBytesWithoutSlots) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, cached_options());
  ASSERT_NE(svc.result_cache(), nullptr);

  const auto cold_id = svc.submit(make_cached_job("cold", "sig"));
  ASSERT_TRUE(cold_id.ok());
  const auto cold = svc.wait(*cold_id);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->state, JobState::kDone) << cold->error.to_string();
  EXPECT_FALSE(cold->from_cache);

  const auto warm_id = svc.submit(make_cached_job("warm", "sig"));
  ASSERT_TRUE(warm_id.ok());
  const auto warm = svc.wait(*warm_id);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->state, JobState::kDone) << warm->error.to_string();
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->dedup_leader, 0u);
  EXPECT_GT(warm->reused_stages, 0u);
  EXPECT_EQ(warm->slots_granted, 0);  // never occupied an engine slot
  EXPECT_EQ(sink_bytes(*warm, kSink), sink_bytes(*cold, kSink));

  const CacheStats stats = svc.result_cache()->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GT(stats.slot_seconds_saved, 0.0);
}

TEST(ServiceCacheTest, InputVersionInvalidates) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, cached_options());

  const auto v0 = svc.submit(make_cached_job("v0", "sig"));
  ASSERT_TRUE(v0.ok());
  ASSERT_TRUE(svc.wait(*v0).ok());

  JobSubmission bumped = make_cached_job("v1", "sig");
  bumped.cache_id.input_version = 1;
  const auto v1 = svc.submit(std::move(bumped));
  ASSERT_TRUE(v1.ok());
  const auto outcome = svc.wait(*v1);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
  EXPECT_FALSE(outcome->from_cache);  // version bump misses v0 entries
}

TEST(ServiceCacheTest, DifferentSignatureMisses) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, cached_options());

  const auto a = svc.submit(make_cached_job("a", "rows=100"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(svc.wait(*a).ok());
  const auto b = svc.submit(make_cached_job("b", "rows=200"));
  ASSERT_TRUE(b.ok());
  const auto outcome = svc.wait(*b);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->from_cache);
}

TEST(ServiceCacheTest, PartialHitPrunesCachedStages) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, cached_options());

  JobSubmission first = make_cached_job("cold", "sig");
  const CacheIdentity id = first.cache_id;
  const auto cold_id = svc.submit(std::move(first));
  ASSERT_TRUE(cold_id.ok());
  const auto cold = svc.wait(*cold_id);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->state, JobState::kDone) << cold->error.to_string();

  // Evict only the sink entry: the resubmission cannot whole-hit but
  // still prunes the cached upstream stages.
  ASSERT_TRUE(svc.result_cache()->contains(id, kSink));
  svc.result_cache()->remove(id, kSink);

  const auto partial_id = svc.submit(make_cached_job("partial", "sig"));
  ASSERT_TRUE(partial_id.ok());
  const auto partial = svc.wait(*partial_id);
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->state, JobState::kDone) << partial->error.to_string();
  EXPECT_FALSE(partial->from_cache);
  EXPECT_GT(partial->reused_stages, 0u);
  // The pruned model gets its own (elastic) DoPs, so the sink's task
  // concatenation order may differ from the cold run — partial hits
  // guarantee identical content, not identical byte order. Whole-job
  // hits (tested above) serve the cold run's exact bytes.
  const auto sorted_partial = exec::sort_by_int(partial->sink_outputs.at(kSink), "warehouse_id");
  const auto sorted_cold = exec::sort_by_int(cold->sink_outputs.at(kSink), "warehouse_id");
  ASSERT_TRUE(sorted_partial.ok());
  ASSERT_TRUE(sorted_cold.ok());
  EXPECT_EQ(*sorted_partial, *sorted_cold);
  EXPECT_GE(svc.result_cache()->stats().partial_hits, 1u);
}

TEST(ServiceCacheTest, DedupeFollowerInheritsLeaderResult) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, cached_options());

  const auto leader = svc.submit(make_cached_job("leader", "sig", 0.3));
  ASSERT_TRUE(leader.ok());
  const auto follower = svc.submit(make_cached_job("follower", "sig", 0.3));
  ASSERT_TRUE(follower.ok());

  const auto lo = svc.wait(*leader);
  const auto fo = svc.wait(*follower);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(fo.ok());
  ASSERT_EQ(lo->state, JobState::kDone) << lo->error.to_string();
  ASSERT_EQ(fo->state, JobState::kDone) << fo->error.to_string();
  EXPECT_FALSE(lo->from_cache);
  EXPECT_TRUE(fo->from_cache);
  EXPECT_EQ(fo->dedup_leader, *leader);
  EXPECT_EQ(sink_bytes(*fo, kSink), sink_bytes(*lo, kSink));
}

TEST(ServiceCacheTest, DedupeFollowerPersistsTheLeadersSinkBytes) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  ServiceOptions opt = cached_options();
  opt.persist_sinks = true;
  JobService svc(cl, *store, opt);

  const auto leader = svc.submit(make_cached_job("leader", "sig", 0.3));
  ASSERT_TRUE(leader.ok());
  const auto follower = svc.submit(make_cached_job("follower", "sig", 0.3));
  ASSERT_TRUE(follower.ok());
  const auto fo = svc.wait(*follower);
  ASSERT_TRUE(fo.ok());
  ASSERT_EQ(fo->state, JobState::kDone) << fo->error.to_string();
  EXPECT_EQ(fo->dedup_leader, *leader);

  const std::string key = "/stage-" + std::to_string(kSink);
  const auto leader_bytes = store->get("sinks/leader" + key);
  const auto follower_bytes = store->get("sinks/follower" + key);
  ASSERT_TRUE(leader_bytes.ok());
  ASSERT_TRUE(follower_bytes.ok());
  EXPECT_EQ(*follower_bytes, *leader_bytes);
}

TEST(ServiceCacheTest, DedupeLeaderFailurePropagatesSameStatus) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, cached_options());

  const auto leader = svc.submit(make_cached_job("leader", "sig", 0.3, /*fail=*/true));
  ASSERT_TRUE(leader.ok());
  const auto follower = svc.submit(make_cached_job("follower", "sig", 0.3, /*fail=*/true));
  ASSERT_TRUE(follower.ok());

  const auto lo = svc.wait(*leader);
  const auto fo = svc.wait(*follower);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(fo.ok());
  EXPECT_EQ(lo->state, JobState::kFailed);
  EXPECT_EQ(fo->state, JobState::kFailed);
  EXPECT_EQ(fo->error.code(), lo->error.code());
  EXPECT_EQ(fo->error.message(), lo->error.message());
  // A failed leader must not poison the cache.
  EXPECT_EQ(svc.result_cache()->stats().insertions, 0u);
}

TEST(ServiceCacheTest, CancellingFollowerLeavesLeaderUnaffected) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, cached_options());

  const auto leader = svc.submit(make_cached_job("leader", "sig", 0.4));
  ASSERT_TRUE(leader.ok());
  const auto follower = svc.submit(make_cached_job("follower", "sig", 0.4));
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(svc.cancel(*follower).is_ok());

  const auto fo = svc.wait(*follower);
  ASSERT_TRUE(fo.ok());
  EXPECT_EQ(fo->state, JobState::kCancelled);

  const auto lo = svc.wait(*leader);
  ASSERT_TRUE(lo.ok());
  EXPECT_EQ(lo->state, JobState::kDone) << lo->error.to_string();
}

TEST(ServiceCacheTest, CancellingLeaderPromotesFollower) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, cached_options());

  const auto leader = svc.submit(make_cached_job("leader", "sig", 0.4));
  ASSERT_TRUE(leader.ok());
  const auto follower = svc.submit(make_cached_job("follower", "sig", 0.4));
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(svc.cancel(*leader).is_ok());

  const auto lo = svc.wait(*leader);
  ASSERT_TRUE(lo.ok());
  EXPECT_EQ(lo->state, JobState::kCancelled);

  // The follower is promoted to run the job itself.
  const auto fo = svc.wait(*follower);
  ASSERT_TRUE(fo.ok());
  EXPECT_EQ(fo->state, JobState::kDone) << fo->error.to_string();
  EXPECT_EQ(fo->dedup_leader, 0u);
}

TEST(ServiceCacheTest, ConcurrentIdenticalSubmissionsRunOnce) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobService svc(cl, *store, cached_options());

  constexpr int kN = 6;
  std::vector<JobId> ids(kN);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kN; ++i) {
    threads.emplace_back([&, i] {
      const auto id = svc.submit(make_cached_job("racer-" + std::to_string(i), "sig", 0.2));
      if (id.ok()) {
        ids[i] = *id;
      } else {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  std::size_t engine_runs = 0;
  std::string reference;
  for (int i = 0; i < kN; ++i) {
    const auto outcome = svc.wait(ids[i]);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
    if (!outcome->from_cache) ++engine_runs;
    const std::string bytes = sink_bytes(*outcome, kSink);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference);
    }
  }
  // submit() holds the service mutex: exactly one leader runs; every
  // other submission attaches to it or whole-hits the cache.
  EXPECT_EQ(engine_runs, 1u);
}

TEST(ServiceCacheTest, PersistedCacheSurvivesRestart) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  ServiceOptions opt = cached_options();
  opt.persist_cache = true;

  std::string cold_bytes;
  {
    JobService svc(cl, *store, opt);
    const auto id = svc.submit(make_cached_job("cold", "sig"));
    ASSERT_TRUE(id.ok());
    const auto outcome = svc.wait(*id);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
    cold_bytes = sink_bytes(*outcome, kSink);
    svc.drain();
  }

  JobService warm_svc(cl, *store, opt);
  const auto id = warm_svc.submit(make_cached_job("warm", "sig"));
  ASSERT_TRUE(id.ok());
  const auto outcome = warm_svc.wait(*id);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
  EXPECT_TRUE(outcome->from_cache);  // warm from the persisted cache
  EXPECT_EQ(sink_bytes(*outcome, kSink), cold_bytes);
}

/// Forwards to `inner`, but holds every put under `prefix` until
/// release(): a best-effort cache save (or a sink persist) that takes
/// as long as the test wants.
class BlockingCacheStore final : public storage::ObjectStore {
 public:
  explicit BlockingCacheStore(storage::ObjectStore& inner, std::string prefix = "cache/")
      : inner_(&inner), prefix_(std::move(prefix)) {}

  const char* kind() const override { return inner_->kind(); }
  const storage::StorageModel& model() const override { return inner_->model(); }
  Status put(const std::string& key, std::string_view value) override {
    if (key.rfind(prefix_, 0) == 0) {
      std::unique_lock<std::mutex> lk(mu_);
      ++blocked_;
      cv_.notify_all();
      cv_.wait(lk, [this] { return released_; });
    }
    return inner_->put(key, value);
  }
  Result<std::string> get(const std::string& key) const override { return inner_->get(key); }
  bool contains(const std::string& key) const override { return inner_->contains(key); }
  Status remove(const std::string& key) override { return inner_->remove(key); }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  Bytes used_bytes() const override { return inner_->used_bytes(); }
  storage::StoreStats stats() const override { return inner_->stats(); }

  void wait_until_blocked() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return blocked_ > 0; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  storage::ObjectStore* inner_;
  const std::string prefix_;
  std::mutex mu_;
  std::condition_variable cv_;
  int blocked_ = 0;        ///< guarded by mu_
  bool released_ = false;  ///< guarded by mu_
};

TEST(ServiceCacheTest, WaitReturnsBeforeTheCacheSaveAndDrainAfterIt) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto inner = storage::make_instant_store();
  BlockingCacheStore store(*inner);
  ServiceOptions opt = cached_options();
  opt.persist_cache = true;
  JobService svc(cl, store, opt);
  // Declared after the service, so it unblocks the save before the
  // service's destructor waits for it, however the test exits.
  struct ReleaseOnExit {
    BlockingCacheStore* store;
    ~ReleaseOnExit() { store->release(); }
  } release_on_exit{&store};

  const auto id = svc.submit(make_cached_job("cold", "sig"));
  ASSERT_TRUE(id.ok());
  auto waited = std::async(std::launch::async, [&svc, &id] { return svc.wait(*id); });
  if (waited.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    store.release();
    FAIL() << "wait() blocked behind the best-effort cache save";
  }
  const auto outcome = waited.get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
  store.wait_until_blocked();  // the save is in progress, and held there

  // drain() still waits for the save.
  auto drained = std::async(std::launch::async, [&svc] { return svc.drain(); });
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(50)), std::future_status::timeout);
  EXPECT_FALSE(inner->contains("cache/index"));
  store.release();
  EXPECT_EQ(drained.get().size(), 1u);
  EXPECT_TRUE(inner->contains("cache/index"));
}

TEST(ServiceCacheTest, JobRetryWaitsForTheFailedAttemptsCacheSave) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto inner = storage::make_instant_store();
  BlockingCacheStore store(*inner);
  ServiceOptions opt = cached_options();
  opt.persist_cache = true;
  JobService svc(cl, store, opt);
  struct ReleaseOnExit {
    BlockingCacheStore* store;
    ~ReleaseOnExit() { store->release(); }
  } release_on_exit{&store};

  // One scan task fails UNAVAILABLE and task-level retry is off, so
  // only a whole-job retry can finish the job.
  auto budget = std::make_shared<std::atomic<int>>(1);
  JobSubmission sub = make_cached_job("retry", "sig");
  const exec::StageFn scan = sub.bindings[0].fn;
  sub.bindings[0].fn = [scan, budget](int task, int dop,
                                      const std::vector<exec::Table>& in) -> Result<exec::Table> {
    if (budget->fetch_sub(1) > 0) return Status::unavailable("injected scan outage");
    return scan(task, dop, in);
  };
  sub.resilience.max_task_attempts = 1;
  sub.job_attempts = 2;
  sub.job_backoff.initial_backoff = 1e-3;
  sub.job_backoff.max_backoff = 1e-3;
  const auto id = svc.submit(std::move(sub));
  ASSERT_TRUE(id.ok());

  // Hold the failed attempt's cache save for many backoff periods. The
  // retry must not be admitted while that attempt's runner is still
  // alive: it would be assigned over the runner's joinable thread.
  store.wait_until_blocked();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  store.release();

  const auto outcome = svc.wait(*id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
  EXPECT_EQ(outcome->attempts, 2);
  EXPECT_EQ(svc.drain().size(), 1u);
  EXPECT_EQ(svc.free_slots(), svc.total_slots());
}

TEST(ServiceCacheTest, CacheHitJobsJournalAndRecoveryConverges) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto store = storage::make_instant_store();
  JobJournal journal(*store, "journal/cache-test.log");
  ASSERT_TRUE(journal.open().is_ok());

  ServiceOptions opt = cached_options();
  opt.journal = &journal;
  opt.persist_sinks = true;
  {
    JobService svc(cl, *store, opt);
    for (const char* label : {"first", "second"}) {
      JobSubmission sub = make_cached_job(label, "sig");
      sub.spec_line = "job q1 label=" + std::string(label);
      const auto id = svc.submit(std::move(sub));
      ASSERT_TRUE(id.ok());
      const auto outcome = svc.wait(*id);
      ASSERT_TRUE(outcome.ok());
      ASSERT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
      EXPECT_NE(outcome->jid, 0u);
      if (std::string(label) == "second") {
        EXPECT_TRUE(outcome->from_cache);
      }
    }
    svc.drain();
  }

  // The journal must say DONE for both jobs — the cache-hit job's
  // lifecycle is journaled exactly like an engine run's.
  const auto records = JobJournal::replay(*store, "journal/cache-test.log");
  ASSERT_TRUE(records.ok()) << records.status().to_string();
  const RecoveryPlan plan = build_recovery(*records);
  EXPECT_EQ(plan.jobs.size(), 2u);
  EXPECT_EQ(plan.completed, 2u);
  for (const RecoveredJob& rj : plan.jobs) {
    EXPECT_EQ(rj.disposition, RecoveredJob::Disposition::kSkip);
  }

  // And the hit's persisted sink bytes match the cold run's exactly.
  const auto cold = store->get("sinks/first/stage-" + std::to_string(kSink));
  const auto warm = store->get("sinks/second/stage-" + std::to_string(kSink));
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*cold, *warm);
}

/// Forwards to `inner`, but fails the first put under `prefix` with
/// UNAVAILABLE: one transient store error on a job's sink persist.
class FailFirstPutStore final : public storage::ObjectStore {
 public:
  FailFirstPutStore(storage::ObjectStore& inner, std::string prefix)
      : inner_(&inner), prefix_(std::move(prefix)) {}

  const char* kind() const override { return inner_->kind(); }
  const storage::StorageModel& model() const override { return inner_->model(); }
  Status put(const std::string& key, std::string_view value) override {
    if (key.rfind(prefix_, 0) == 0 && !failed_.exchange(true)) {
      return Status::unavailable("injected put outage on " + key);
    }
    return inner_->put(key, value);
  }
  Result<std::string> get(const std::string& key) const override { return inner_->get(key); }
  bool contains(const std::string& key) const override { return inner_->contains(key); }
  Status remove(const std::string& key) override { return inner_->remove(key); }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  Bytes used_bytes() const override { return inner_->used_bytes(); }
  storage::StoreStats stats() const override { return inner_->stats(); }

  bool failed() const { return failed_.load(); }

 private:
  storage::ObjectStore* inner_;
  const std::string prefix_;
  std::atomic<bool> failed_{false};
};

TEST(ServiceCacheTest, WholeHitWhoseSinkPersistFailsRunsCold) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto inner = storage::make_instant_store();
  FailFirstPutStore store(*inner, "sinks/warm/");
  ServiceOptions opt = cached_options();
  opt.persist_sinks = true;
  JobService svc(cl, store, opt);

  const auto cold_id = svc.submit(make_cached_job("cold", "sig"));
  ASSERT_TRUE(cold_id.ok());
  const auto cold = svc.wait(*cold_id);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->state, JobState::kDone) << cold->error.to_string();

  // submit() finds the whole hit, but persisting it fails once: the job
  // runs instead, and that run persists its own sinks.
  const auto warm_id = svc.submit(make_cached_job("warm", "sig"));
  ASSERT_TRUE(warm_id.ok());
  const auto warm = svc.wait(*warm_id);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->state, JobState::kDone) << warm->error.to_string();
  EXPECT_TRUE(store.failed());
  EXPECT_FALSE(warm->from_cache);
  EXPECT_EQ(warm->attempts, 1);
  const auto persisted = inner->get("sinks/warm/stage-" + std::to_string(kSink));
  ASSERT_TRUE(persisted.ok());
  EXPECT_EQ(*persisted, sink_bytes(*warm, kSink));
  const auto sorted_warm = exec::sort_by_int(warm->sink_outputs.at(kSink), "warehouse_id");
  const auto sorted_cold = exec::sort_by_int(cold->sink_outputs.at(kSink), "warehouse_id");
  ASSERT_TRUE(sorted_warm.ok());
  ASSERT_TRUE(sorted_cold.ok());
  EXPECT_EQ(*sorted_warm, *sorted_cold);
  EXPECT_EQ(svc.result_cache()->stats().hits, 0u);
}

TEST(ServiceCacheTest, QueuedWholeHitWhoseSinkPersistFailsRunsCold) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto inner = storage::make_instant_store();
  FailFirstPutStore store(*inner, "sinks/retry/");
  ServiceOptions opt = cached_options();
  opt.persist_sinks = true;
  JobService svc(cl, store, opt);

  // Take a cold run's sink entry out of the cache, so the job below is
  // submitted against an empty cache.
  JobSubmission first = make_cached_job("cold", "sig");
  const CacheIdentity id = first.cache_id;
  const auto cold_id = svc.submit(std::move(first));
  ASSERT_TRUE(cold_id.ok());
  ASSERT_EQ(svc.wait(*cold_id)->state, JobState::kDone);
  ResultCache* cache = svc.result_cache();
  const auto sink = cache->lookup(id, kSink);
  ASSERT_TRUE(sink.has_value());
  for (StageId s = 0; s <= kSink; ++s) cache->remove(id, s);

  // Its first attempt puts the sink entry back and fails UNAVAILABLE,
  // so the retry is a whole hit served from the queue. Persisting that
  // hit fails once: the retry runs instead.
  auto budget = std::make_shared<std::atomic<int>>(1);
  JobSubmission sub = make_cached_job("retry", "sig");
  const exec::StageFn scan = sub.bindings[0].fn;
  const storage::Payload bytes = sink->bytes;
  const double slot_seconds = sink->slot_seconds;
  sub.bindings[0].fn = [=](int task, int dop,
                           const std::vector<exec::Table>& in) -> Result<exec::Table> {
    if (budget->fetch_sub(1) > 0) {
      cache->insert(id, kSink, bytes, slot_seconds);
      return Status::unavailable("injected scan outage");
    }
    return scan(task, dop, in);
  };
  sub.resilience.max_task_attempts = 1;
  sub.job_attempts = 2;
  sub.job_backoff.initial_backoff = 1e-3;
  sub.job_backoff.max_backoff = 1e-3;
  const auto retry_id = svc.submit(std::move(sub));
  ASSERT_TRUE(retry_id.ok());
  const auto outcome = svc.wait(*retry_id);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->state, JobState::kDone) << outcome->error.to_string();
  EXPECT_TRUE(store.failed());
  EXPECT_FALSE(outcome->from_cache);
  EXPECT_EQ(outcome->attempts, 2);
  const auto persisted = inner->get("sinks/retry/stage-" + std::to_string(kSink));
  ASSERT_TRUE(persisted.ok());
  EXPECT_EQ(*persisted, sink_bytes(*outcome, kSink));
}

TEST(ServiceCacheTest, FollowerCancelledDuringItsSinkPersistEndsDone) {
  auto cl = cluster::Cluster::uniform(2, 4);
  auto inner = storage::make_instant_store();
  BlockingCacheStore store(*inner, "sinks/follower/");
  ServiceOptions opt = cached_options();
  opt.persist_sinks = true;
  JobService svc(cl, store, opt);
  struct ReleaseOnExit {
    BlockingCacheStore* store;
    ~ReleaseOnExit() { store->release(); }
  } release_on_exit{&store};

  const auto leader = svc.submit(make_cached_job("leader", "sig", 0.3));
  ASSERT_TRUE(leader.ok());
  const auto follower = svc.submit(make_cached_job("follower", "sig", 0.3));
  ASSERT_TRUE(follower.ok());

  // The leader is persisting the follower's sinks. Like a running job,
  // the follower takes the cancel only as a request: its answer objects
  // are being written, so it must end DONE, not CANCELLED.
  store.wait_until_blocked();
  ASSERT_TRUE(svc.cancel(*follower).is_ok());
  EXPECT_EQ(*svc.state(*follower), JobState::kAdmitted);
  store.release();
  const auto fo = svc.wait(*follower);
  ASSERT_TRUE(fo.ok());
  EXPECT_EQ(fo->state, JobState::kDone) << fo->error.to_string();
  EXPECT_EQ(fo->dedup_leader, *leader);
  const auto lo = svc.wait(*leader);
  ASSERT_TRUE(lo.ok());
  EXPECT_EQ(lo->state, JobState::kDone) << lo->error.to_string();

  const std::string key = "/stage-" + std::to_string(kSink);
  EXPECT_TRUE(inner->contains("sinks/leader" + key));
  EXPECT_TRUE(inner->contains("sinks/follower" + key));
}

}  // namespace
}  // namespace ditto::service
