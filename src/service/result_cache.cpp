#include "service/result_cache.h"

#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/profile_store.h"

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

constexpr char kIndexMagic[] = "DITTOCACHE1";

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
    if (it->second.persisted) evicted_persisted_.push_back(victim);
    entries_.erase(it);
  }
}

void ResultCache::remove(const CacheIdentity& id, StageId stage) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find({id, stage});
  if (it == entries_.end()) return;
  stats_.bytes -= it->second.bytes->size();
  --stats_.entries;
  if (it->second.persisted) evicted_persisted_.push_back(it->first);
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
  std::lock_guard<std::mutex> lk(mu_);
  // Remove evicted-but-persisted entry objects first, then write new
  // entry objects, then rewrite the index last: a crash anywhere in
  // between leaves an index whose dangling entries load() skips.
  for (const Key& key : evicted_persisted_) {
    if (entries_.count(key) != 0) continue;  // re-inserted since eviction
    const Status removed = store.remove(object_key(prefix, key.first, key.second));
    (void)removed;  // best effort; a leaked object is unreachable anyway
  }
  evicted_persisted_.clear();
  for (auto& [key, entry] : entries_) {
    if (entry.persisted) continue;
    DITTO_RETURN_IF_ERROR(
        store.put_payload(object_key(prefix, key.first, key.second), entry.bytes));
    entry.persisted = true;
  }
  std::ostringstream index;
  index << kIndexMagic << "\n";
  for (const Key& key : lru_) {  // oldest first: load preserves recency
    const Entry& e = entries_.at(key);
    index << "entry " << key.second << " " << e.bytes->size() << " " << e.slot_seconds << " "
          << obs::fingerprint_hex(key.first.plan_fingerprint) << " "
          << key.first.input_version << " " << key.first.input_signature << "\n";
  }
  return store.put(prefix + "/index", index.str());
}

Status ResultCache::load(storage::ObjectStore& store, const std::string& prefix) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!store.contains(prefix + "/index")) return Status::ok();  // fresh store
  auto payload = store.get(prefix + "/index");
  if (!payload.ok()) return payload.status();

  // Stage everything before touching the cache: a corrupt index or
  // entry leaves the in-memory state exactly as it was.
  struct Loaded {
    CacheIdentity id;
    StageId stage = kNoStage;
    double slot_seconds = 0.0;
    storage::Payload bytes;
  };
  std::vector<Loaded> loaded;

  std::istringstream lines(*payload);
  std::string line;
  if (!std::getline(lines, line) || line != kIndexMagic) {
    return Status::invalid_argument("corrupt cache index '" + prefix + "/index': bad magic");
  }
  int line_no = 1;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string head, fp_hex;
    Loaded l;
    std::uint64_t size = 0;
    std::string extra;
    if (!(tokens >> head >> l.stage >> size >> l.slot_seconds >> fp_hex >>
          l.id.input_version >> l.id.input_signature) ||
        head != "entry" || (tokens >> extra)) {
      return Status::invalid_argument("corrupt cache index '" + prefix + "/index' line " +
                                      std::to_string(line_no));
    }
    auto fp = obs::parse_fingerprint_hex(fp_hex);
    if (!fp.ok()) {
      return Status::invalid_argument("corrupt cache index '" + prefix + "/index' line " +
                                      std::to_string(line_no) + ": " + fp.status().message());
    }
    l.id.plan_fingerprint = *fp;
    if (!l.id.enabled()) {
      return Status::invalid_argument("corrupt cache index '" + prefix + "/index' line " +
                                      std::to_string(line_no) + ": disabled identity");
    }
    const std::string okey = object_key(prefix, l.id, l.stage);
    if (!store.contains(okey)) continue;  // torn save: entry never landed
    auto bytes = store.get_payload(okey);
    if (!bytes.ok()) return bytes.status();
    if ((*bytes)->size() != size) {
      return Status::invalid_argument("corrupt cache entry '" + okey + "': size " +
                                      std::to_string((*bytes)->size()) + " != indexed " +
                                      std::to_string(size));
    }
    l.bytes = std::move(*bytes);
    loaded.push_back(std::move(l));
  }

  for (Loaded& l : loaded) {
    if (capacity_ > 0 && l.bytes->size() > capacity_) continue;
    insert_locked(l.id, l.stage, std::move(l.bytes), l.slot_seconds, /*persisted=*/true);
    --stats_.insertions;  // loading history is not a fresh insertion
  }
  publish_metrics_locked();
  return Status::ok();
}

}  // namespace ditto::service
