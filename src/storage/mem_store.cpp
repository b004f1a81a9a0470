#include "storage/mem_store.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ditto::storage {

namespace {

/// Per-backend request accounting: count, bytes, real latency, and an
/// in-flight gauge approximating request concurrency. The cumulative
/// byte counters also feed a trace counter track per store kind.
class RequestScope {
 public:
  RequestScope(const char* kind, const char* op)
      : mx_(obs::MetricsRegistry::global()), enabled_(mx_.enabled()), kind_(kind), op_(op) {
    if (!enabled_) return;
    mx_.gauge("storage.inflight_requests", {{"kind", kind_}}).add(1.0);
  }

  ~RequestScope() {
    if (!enabled_) return;
    const obs::MetricLabels labels{{"kind", kind_}, {"op", op_}};
    mx_.counter("storage.requests", labels).add();
    mx_.histogram("storage.request_seconds", 0.0, 0.1, 50, labels)
        .observe(clock_.elapsed_seconds());
    mx_.gauge("storage.inflight_requests", {{"kind", kind_}}).add(-1.0);
    if (bytes_ > 0) {
      const std::uint64_t total =
          mx_.counter("storage.bytes", labels).add(bytes_);
      obs::TraceCollector& tc = obs::TraceCollector::global();
      if (tc.enabled()) {
        tc.counter("storage", std::string(kind_) + "." + op_ + "_bytes", tc.now_us(),
                   static_cast<double>(total), -1);
      }
    }
    if (miss_) mx_.counter("storage.misses", {{"kind", kind_}}).add();
  }

  void set_bytes(Bytes n) { bytes_ = n; }
  void set_miss() { miss_ = true; }
  bool enabled() const { return enabled_; }

 private:
  obs::MetricsRegistry& mx_;
  const bool enabled_;
  const char* kind_;
  const char* op_;
  Stopwatch clock_;
  Bytes bytes_ = 0;
  bool miss_ = false;
};

}  // namespace

void MemStore::maybe_sleep(Bytes n) const {
  if (delay_scale_ <= 0.0) return;
  const Seconds t = model_.transfer_time(n) * delay_scale_;
  if (t > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t));
  }
}

Status MemStore::put(const std::string& key, std::string_view value) {
  return put_payload(key, std::make_shared<const std::string>(value));
}

Result<std::string> MemStore::get(const std::string& key) const {
  DITTO_ASSIGN_OR_RETURN(Payload payload, get_payload(key));
  return std::string(*payload);
}

Status MemStore::put_payload(const std::string& key, Payload value) {
  if (value == nullptr) return Status::invalid_argument("null payload for " + key);
  RequestScope scope(kind(), "put");
  const Bytes size = value->size();
  // `value` outlives the lock, so a rejected or displaced payload is
  // freed after unlocking.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = data_.find(key);
    const Bytes old_size = it != data_.end() ? it->second->size() : 0;
    if (model_.capacity > 0 && used_ - old_size + size > model_.capacity) {
      // A rejected put moves no data: it must not count toward the
      // byte telemetry and pays no modeled transfer delay.
      ++stats_.rejected;
      if (scope.enabled()) {
        obs::MetricsRegistry::global().counter("storage.rejected", {{"kind", kind()}}).add();
      }
      return Status::resource_exhausted(std::string(kind()) + " store capacity exceeded");
    }
    if (it != data_.end()) {
      std::swap(it->second, value);  // `value` now holds the displaced payload
    } else {
      data_.emplace(key, std::move(value));
    }
    used_ = used_ - old_size + size;
    ++stats_.puts;
    stats_.bytes_written += size;
  }
  scope.set_bytes(size);
  maybe_sleep(size);
  return Status::ok();
}

Result<Payload> MemStore::get_payload(const std::string& key) const {
  RequestScope scope(kind(), "get");
  Payload payload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = data_.find(key);
    ++stats_.gets;
    if (it == data_.end()) {
      ++stats_.misses;
      scope.set_miss();
      return Status::not_found("key not found: " + key);
    }
    payload = it->second;
    stats_.bytes_read += payload->size();
  }
  scope.set_bytes(payload->size());
  maybe_sleep(payload->size());
  return payload;
}

bool MemStore::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_.count(key) != 0;
}

Status MemStore::remove(const std::string& key) {
  Payload doomed;  // freed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = data_.find(key);
  if (it == data_.end()) return Status::not_found("key not found: " + key);
  used_ -= it->second->size();
  doomed = std::move(it->second);
  data_.erase(it);
  return Status::ok();
}

std::vector<std::string> MemStore::list(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [k, v] : data_) {
    if (k.rfind(prefix, 0) == 0) out.push_back(k);
  }
  return out;
}

Bytes MemStore::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_;
}

StoreStats MemStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MemStore::clear() {
  std::unordered_map<std::string, Payload> doomed;  // freed after unlocking
  std::lock_guard<std::mutex> lock(mu_);
  doomed.swap(data_);
  used_ = 0;
}

}  // namespace ditto::storage
