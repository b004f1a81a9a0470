// ResultCache: the recurring-job result cache (ROADMAP item 4).
//
// Ditto's premise is recurring analytics jobs (§6.5: the same query
// shapes return again and again), so a production service sees the
// identical submission many times over. The cache stores the
// *serialized output bytes* of completed stages keyed by
//
//     (plan fingerprint, input signature, input version) x stage
//
// where the fingerprint is structural_fingerprint() of the model DAG
// (plan shape only) and the input signature canonicalizes every knob
// of the data the job reads — two submissions share an identity iff
// they would compute byte-identical outputs. `input_version` is the
// explicit invalidation handle: bumping it in the serve spec makes
// prior entries unreachable without touching them.
//
// What the service does with it (job_service.cpp):
//   * whole-job hit  — every sink stage cached: the job completes DONE
//     from the cached bytes without occupying a single engine slot;
//   * partial hit    — some upstream stages cached: they are pruned
//     from the sub-DAG handed to the scheduler (dag/dag_algorithms.h
//     prune_completed_stages) and replayed as zero-compute sources
//     that re-seed the job's exchange prefix;
//   * in-flight dedupe — identical submissions attach to the running
//     leader instead of probing/executing twice.
//
// Capacity is byte-bounded with LRU eviction (lookup refreshes
// recency). Entries persist through any ObjectStore — one raw-bytes
// object per entry plus a strict text index, following the
// StageProfileStore idiom: a corrupt index fails INVALID_ARGUMENT and
// leaves the in-memory cache untouched; an index entry whose bytes
// object is missing (crash between entry and index writes) is skipped.
//
// Thread-safe; all methods may be called concurrently.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "dag/types.h"
#include "storage/object_store.h"

namespace ditto::service {

/// Identity of a job's cached results. Default-constructed (empty
/// signature) means "caching off for this job": every probe misses and
/// the job never deduplicates.
struct CacheIdentity {
  std::uint64_t plan_fingerprint = 0;
  /// Canonical description of the input data (engine_jobs.h
  /// engine_query_signature). MUST contain no whitespace — it is
  /// embedded in the persisted index's space-separated lines.
  std::string input_signature;
  /// Explicit invalidation handle (serve spec `input_version=N`).
  std::uint64_t input_version = 0;

  bool enabled() const { return plan_fingerprint != 0 && !input_signature.empty(); }

  /// Stable whitespace-free key: fingerprint + signature hash + version.
  std::string key() const;

  friend bool operator==(const CacheIdentity& a, const CacheIdentity& b) {
    return a.plan_fingerprint == b.plan_fingerprint && a.input_version == b.input_version &&
           a.input_signature == b.input_signature;
  }
  friend bool operator<(const CacheIdentity& a, const CacheIdentity& b) {
    return std::tie(a.plan_fingerprint, a.input_version, a.input_signature) <
           std::tie(b.plan_fingerprint, b.input_version, b.input_signature);
  }
};

/// Running totals; slot_seconds_saved counts the cold run's
/// slots x wall-seconds re-served from cache (whole-job hits) plus a
/// pruned-fraction estimate for partial hits.
struct CacheStats {
  std::size_t hits = 0;           ///< whole-job hits served
  std::size_t partial_hits = 0;   ///< jobs that pruned >= 1 cached stage
  std::size_t misses = 0;         ///< jobs that ran their full DAG
  std::size_t stage_hits = 0;     ///< stage entries served (whole + partial)
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
  Bytes bytes = 0;
  double slot_seconds_saved = 0.0;
};

class ResultCache {
 public:
  /// `capacity_bytes` bounds the summed entry payloads; 0 = unbounded.
  explicit ResultCache(Bytes capacity_bytes);

  struct Hit {
    storage::Payload bytes;  ///< serialized table
    double slot_seconds = 0.0;  ///< cold run's slot-seconds (whole job)
  };

  /// Probes one stage entry and refreshes its LRU recency on hit.
  /// Job-level hit/miss accounting is the caller's (note_* below);
  /// stage_hits increments here.
  std::optional<Hit> lookup(const CacheIdentity& id, StageId stage);

  /// Probe without touching recency or stats.
  bool contains(const CacheIdentity& id, StageId stage) const;

  /// Stores serialized output bytes for (id, stage), sharing them
  /// with the caller, and evicts LRU entries as needed. A null entry,
  /// or one larger than the whole capacity, is dropped on the floor.
  /// Re-inserting an existing key replaces the bytes (idempotent under
  /// submission races).
  void insert(const CacheIdentity& id, StageId stage, storage::Payload bytes,
              double slot_seconds = 0.0);

  /// Drops one entry (tests; explicit invalidation). No-op when absent.
  void remove(const CacheIdentity& id, StageId stage);

  // Job-level accounting, called once per submission by the service.
  void note_hit(double slot_seconds_saved);
  void note_partial_hit(double slot_seconds_saved);
  void note_miss();

  CacheStats stats() const;
  Bytes used_bytes() const;
  Bytes capacity_bytes() const { return capacity_; }

  /// Persists the cache: one `<prefix>/<key>/stage-<N>` object per
  /// entry (its Payload, shared through put_payload) plus a
  /// `<prefix>/index` text object written last, so a torn save
  /// degrades to skipped entries at load. Already-persisted entries
  /// are not rewritten; evicted persisted entries are removed.
  Status save(storage::ObjectStore& store, const std::string& prefix = "cache");

  /// Loads entries under `prefix` through get_payload, merging into
  /// the cache (respecting capacity). A missing index is OK (fresh
  /// store; no-op). A corrupt index or entry fails INVALID_ARGUMENT
  /// and leaves the cache exactly as it was.
  Status load(storage::ObjectStore& store, const std::string& prefix = "cache");

 private:
  using Key = std::pair<CacheIdentity, StageId>;

  struct Entry {
    storage::Payload bytes;
    double slot_seconds = 0.0;
    bool persisted = false;
    std::list<Key>::iterator lru_it;
  };

  static std::string object_key(const std::string& prefix, const CacheIdentity& id,
                                StageId stage);
  void insert_locked(const CacheIdentity& id, StageId stage, storage::Payload bytes,
                     double slot_seconds, bool persisted);
  void evict_to_capacity_locked();
  void publish_metrics_locked() const;

  const Bytes capacity_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< front = oldest, back = most recent
  /// Object keys of evicted entries that were persisted (removed on
  /// the next save so the on-store index never dangles forever).
  std::vector<Key> evicted_persisted_;
  CacheStats stats_;
};

}  // namespace ditto::service
