#include "service/result_cache.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/profile_store.h"
#include "storage/record_log.h"

namespace ditto::service {
namespace {

/// FNV-1a: stable across platforms, good enough to keep persisted
/// object keys short (full identity equality still uses the exact
/// signature string).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One cache-index record: an entry's identity, size and slot-seconds.
struct IndexEntry {
  CacheIdentity id;
  StageId stage = kNoStage;
  std::uint64_t size = 0;
  double slot_seconds = 0.0;
};

std::string index_record(const CacheIdentity& id, StageId stage, std::uint64_t size,
                         double slot_seconds) {
  return storage::format_fields({{"stage", std::to_string(stage)},
                                 {"bytes", std::to_string(size)},
                                 {"slot_seconds", storage::format_double(slot_seconds)},
                                 {"fp", obs::fingerprint_hex(id.plan_fingerprint)},
                                 {"version", std::to_string(id.input_version)},
                                 {"signature", id.input_signature}});
}

Result<IndexEntry> parse_index_record(std::string_view text) {
  DITTO_ASSIGN_OR_RETURN(const storage::RecordFields f,
                         storage::parse_fields(text, {"signature"}));
  std::string names;
  for (const auto& field : f) names += field.first + " ";
  if (names != "stage bytes slot_seconds fp version signature ") {
    return Status::invalid_argument("expected fields stage bytes slot_seconds fp version signature");
  }
  IndexEntry e;
  DITTO_ASSIGN_OR_RETURN(const std::uint64_t stage, storage::parse_u64("stage", f[0].second));
  if (stage >= kNoStage) return Status::invalid_argument("bad stage '" + f[0].second + "'");
  e.stage = static_cast<StageId>(stage);
  DITTO_ASSIGN_OR_RETURN(e.size, storage::parse_u64("bytes", f[1].second));
  DITTO_ASSIGN_OR_RETURN(e.slot_seconds, storage::parse_nonnegative("slot_seconds", f[2].second));
  DITTO_ASSIGN_OR_RETURN(e.id.plan_fingerprint, obs::parse_fingerprint_hex(f[3].second));
  DITTO_ASSIGN_OR_RETURN(e.id.input_version, storage::parse_u64("version", f[4].second));
  e.id.input_signature = f[5].second;
  if (!e.id.enabled()) return Status::invalid_argument("disabled identity");
  return e;
}

}  // namespace

std::string CacheIdentity::key() const {
  return obs::fingerprint_hex(plan_fingerprint) + "-" + obs::fingerprint_hex(fnv1a(input_signature)) +
         "-v" + std::to_string(input_version);
}

ResultCache::ResultCache(Bytes capacity_bytes) : capacity_(capacity_bytes) {}

std::string ResultCache::object_key(const std::string& prefix, const CacheIdentity& id,
                                    StageId stage) {
  return prefix + "/" + id.key() + "/stage-" + std::to_string(stage);
}

std::optional<ResultCache::Hit> ResultCache::lookup(const CacheIdentity& id, StageId stage) {
  if (!id.enabled()) return std::nullopt;
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find({id, stage});
  if (it == entries_.end()) return std::nullopt;
  lru_.splice(lru_.end(), lru_, it->second.lru_it);  // refresh recency
  ++stats_.stage_hits;
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("service.cache_stage_hits").add();
  return Hit{it->second.bytes, it->second.slot_seconds};
}

bool ResultCache::contains(const CacheIdentity& id, StageId stage) const {
  if (!id.enabled()) return false;
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.count({id, stage}) != 0;
}

void ResultCache::insert(const CacheIdentity& id, StageId stage, storage::Payload bytes,
                         double slot_seconds) {
  if (!id.enabled() || bytes == nullptr) return;
  if (capacity_ > 0 && bytes->size() > capacity_) return;  // could never fit
  std::lock_guard<std::mutex> lk(mu_);
  insert_locked(id, stage, std::move(bytes), slot_seconds, /*persisted=*/false);
}

void ResultCache::insert_locked(const CacheIdentity& id, StageId stage, storage::Payload bytes,
                                double slot_seconds, bool persisted) {
  const Key key{id, stage};
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Replace (idempotent under submission races); recency refreshes.
    stats_.bytes -= it->second.bytes->size();
    stats_.bytes += bytes->size();
    it->second.bytes = std::move(bytes);
    it->second.slot_seconds = slot_seconds;
    it->second.persisted = persisted;
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
  } else {
    const auto lru_it = lru_.insert(lru_.end(), key);
    Entry e;
    e.bytes = std::move(bytes);
    e.slot_seconds = slot_seconds;
    e.persisted = persisted;
    e.lru_it = lru_it;
    stats_.bytes += e.bytes->size();
    ++stats_.entries;
    entries_.emplace(key, std::move(e));
  }
  ++stats_.insertions;
  evict_to_capacity_locked();
  publish_metrics_locked();
}

void ResultCache::evict_to_capacity_locked() {
  if (capacity_ == 0) return;
  while (stats_.bytes > capacity_ && !lru_.empty()) {
    const Key victim = lru_.front();
    lru_.pop_front();
    const auto it = entries_.find(victim);
    stats_.bytes -= it->second.bytes->size();
    --stats_.entries;
    ++stats_.evictions;
    entries_.erase(it);
  }
}

void ResultCache::remove(const CacheIdentity& id, StageId stage) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find({id, stage});
  if (it == entries_.end()) return;
  stats_.bytes -= it->second.bytes->size();
  --stats_.entries;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  publish_metrics_locked();
}

void ResultCache::note_hit(double slot_seconds_saved) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.hits;
  stats_.slot_seconds_saved += slot_seconds_saved;
  publish_metrics_locked();
}

void ResultCache::note_partial_hit(double slot_seconds_saved) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.partial_hits;
  stats_.slot_seconds_saved += slot_seconds_saved;
  publish_metrics_locked();
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("service.cache_partial_hits").add();
}

void ResultCache::note_miss() {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.misses;
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("service.cache_misses").add();
}

void ResultCache::publish_metrics_locked() const {
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (!mx.enabled()) return;
  // Hits and evictions export as gauges holding running totals — the
  // CI promcheck greps `service_cache_hits` / `service_cache_evictions`.
  mx.gauge("service.cache_hits").set(static_cast<double>(stats_.hits));
  mx.gauge("service.cache_evictions").set(static_cast<double>(stats_.evictions));
  mx.gauge("service.cache_entries").set(static_cast<double>(stats_.entries));
  mx.gauge("service.cache_bytes").set(static_cast<double>(stats_.bytes));
  mx.gauge("service.cache_slot_seconds_saved").set(stats_.slot_seconds_saved);
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

Bytes ResultCache::used_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_.bytes;
}

Status ResultCache::save(storage::ObjectStore& store, const std::string& prefix) {
  // Saves run one at a time, so the index written last is always the
  // newest snapshot. The store I/O runs outside mu_: lookups and
  // inserts never wait on it.
  std::lock_guard<std::mutex> saving(save_mu_);
  std::vector<Key> live;  // sorted: entries_ iterates in key order
  std::vector<std::pair<Key, storage::Payload>> puts;
  std::vector<std::string> index;
  {
    std::lock_guard<std::mutex> lk(mu_);
    live.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      live.push_back(key);
      if (!entry.persisted) puts.emplace_back(key, entry.bytes);
    }
    index.reserve(lru_.size());
    for (const Key& key : lru_) {
      const Entry& e = entries_.at(key);
      index.push_back(index_record(key.first, key.second, e.bytes->size(), e.slot_seconds));
    }
  }
  // Removals first, then new entry objects, then the index last: a
  // crash anywhere in between leaves an index whose dangling entries
  // load() skips.
  for (auto it = stored_.begin(); it != stored_.end();) {
    if (std::binary_search(live.begin(), live.end(), *it)) {
      ++it;
      continue;
    }
    const Status removed = store.remove(object_key(prefix, it->first, it->second));
    (void)removed;  // best effort; a leaked object is unreachable anyway
    it = stored_.erase(it);
  }
  for (const auto& [key, bytes] : puts) {
    DITTO_RETURN_IF_ERROR(store.put_payload(object_key(prefix, key.first, key.second), bytes));
    stored_.insert(key);
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second.bytes == bytes) it->second.persisted = true;
  }
  return store.put(prefix + "/index", storage::RecordLog::encode_segment(index));
}

Status ResultCache::load(storage::ObjectStore& store, const std::string& prefix) {
  std::lock_guard<std::mutex> saving(save_mu_);
  const std::string index_key = prefix + "/index";
  if (!store.contains(index_key)) return Status::ok();  // fresh store
  DITTO_ASSIGN_OR_RETURN(const std::string bytes, store.get(index_key));
  auto records = storage::RecordLog::decode_segment(bytes);
  if (!records.ok()) {
    return Status::invalid_argument("corrupt cache index '" + index_key +
                                    "': " + records.status().message());
  }

  // Stage everything before touching the cache: a corrupt index or
  // entry leaves the in-memory state exactly as it was.
  std::vector<std::pair<IndexEntry, storage::Payload>> loaded;
  for (std::size_t i = 0; i < records->size(); ++i) {
    auto entry = parse_index_record((*records)[i]);
    if (!entry.ok()) {
      return Status::invalid_argument("corrupt cache index '" + index_key + "' record " +
                                      std::to_string(i) + ": " + entry.status().message());
    }
    const std::string okey = object_key(prefix, entry->id, entry->stage);
    if (!store.contains(okey)) continue;  // interrupted save: entry never landed
    DITTO_ASSIGN_OR_RETURN(storage::Payload bytes, store.get_payload(okey));
    if (bytes->size() != entry->size) {
      return Status::invalid_argument("corrupt cache entry '" + okey + "': size " +
                                      std::to_string(bytes->size()) + " != indexed " +
                                      std::to_string(entry->size));
    }
    loaded.emplace_back(std::move(*entry), std::move(bytes));
  }

  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [e, bytes] : loaded) {
    stored_.emplace(e.id, e.stage);  // on the store even if it does not fit
    if (capacity_ > 0 && bytes->size() > capacity_) continue;
    insert_locked(e.id, e.stage, std::move(bytes), e.slot_seconds, /*persisted=*/true);
    --stats_.insertions;  // loading history is not a fresh insertion
  }
  publish_metrics_locked();
  return Status::ok();
}

}  // namespace ditto::service
