// External storage abstraction (paper §3: "an external storage service
// to provide data exchange between functions").
//
// Ditto's data plane moves intermediate data either through zero-copy
// shared memory (same server) or through an ObjectStore (cross-server).
// Two concrete stores mirror the paper's testbed: an S3-like object
// store (high per-request latency, per-connection bandwidth, ~free) and
// a Redis-like in-memory store (sub-ms latency, bounded capacity,
// memory-priced). Both are fully functional key-value stores; their
// timing model feeds the simulator and can optionally be applied as
// real delays in engine mode. Every store's put is atomic (below): the
// service's durable state, the job journal and the cache index, is
// written through puts and never has to recover a torn value.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"

namespace ditto::storage {

/// Latency/bandwidth/pricing parameters of a storage backend.
struct StorageModel {
  Seconds request_latency = 0.0;        ///< fixed per-request overhead
  double bandwidth_bytes_per_s = 0.0;   ///< per-connection throughput (0 = infinite)
  double cost_per_gb_second = 0.0;      ///< persistence price (decimal GB)
  Bytes capacity = 0;                   ///< 0 = unbounded

  /// Modeled wall time for transferring `n` bytes in one request.
  ///
  /// Composition with fault injection: injected latency (FlakyStore,
  /// FaultSpec::storage_delay) is ADDED on top of this modeled time,
  /// once per attempt — total = transfer_time(n) + injected_delay.
  /// The two never multiply, and a retried op pays the modeled time
  /// again per attempt (it is a new request), plus the retry backoff.
  /// Simulator and engine follow the same rule so their timings agree.
  Seconds transfer_time(Bytes n) const {
    Seconds t = request_latency;
    if (bandwidth_bytes_per_s > 0.0) t += static_cast<double>(n) / bandwidth_bytes_per_s;
    return t;
  }

  /// Cost of keeping `n` bytes resident for `dur` seconds.
  double persistence_cost(Bytes n, Seconds dur) const {
    return cost_per_gb_second * (static_cast<double>(n) / 1e9) * dur;
  }
};

/// Price of a store's persistence relative to function/DRAM memory
/// (normalized against ElastiCache-class memory at 1.6e-5 $/GB-s).
/// Redis-class stores come out ~1.0; S3 rounds to ~0 (the paper
/// ignores S3 persistence cost for this reason).
inline double relative_to_memory_price(const StorageModel& m) {
  constexpr double kMemoryGbSecondPrice = 1.6e-5;
  return m.cost_per_gb_second / kMemoryGbSecondPrice;
}

/// Aggregate per-store operation statistics (the runtime monitor reads
/// these; tests assert on them).
struct StoreStats {
  std::size_t puts = 0;      ///< successful puts only
  std::size_t gets = 0;
  std::size_t misses = 0;
  std::size_t rejected = 0;  ///< puts refused for capacity
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
};

/// An immutable stored value that the store and its readers can share.
using Payload = std::shared_ptr<const std::string>;

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  virtual const char* kind() const = 0;
  virtual const StorageModel& model() const = 0;

  /// Stores a value, replacing any old one atomically: a concurrent
  /// get, or a process killed mid-put, sees the old value or the new
  /// one, never part of either. Durable state (storage/record_log.h)
  /// relies on this. Fails with RESOURCE_EXHAUSTED when a bounded store
  /// would exceed capacity.
  virtual Status put(const std::string& key, std::string_view value) = 0;

  /// Fetches a copy of the value; NOT_FOUND if missing.
  virtual Result<std::string> get(const std::string& key) const = 0;

  /// put() for a value the caller hands over whole. A store that keeps
  /// values in memory may keep the pointer instead of copying the
  /// bytes; the default copies through put(), with the same accounting
  /// and fault behaviour.
  virtual Status put_payload(const std::string& key, Payload value) {
    if (value == nullptr) return Status::invalid_argument("null payload for " + key);
    return put(key, *value);
  }

  /// get() as a shared, immutable value. A store that keeps values in
  /// memory may return its own pointer instead of a copy; the default
  /// copies through get(). The value stays valid after the key is
  /// overwritten or removed.
  virtual Result<Payload> get_payload(const std::string& key) const {
    DITTO_ASSIGN_OR_RETURN(std::string value, get(key));
    return std::make_shared<const std::string>(std::move(value));
  }

  virtual bool contains(const std::string& key) const = 0;
  virtual Status remove(const std::string& key) = 0;
  virtual std::vector<std::string> list(const std::string& prefix) const = 0;

  virtual Bytes used_bytes() const = 0;
  virtual StoreStats stats() const = 0;

  /// Modeled times for the simulator (no data movement).
  Seconds put_time(Bytes n) const { return model().transfer_time(n); }
  Seconds get_time(Bytes n) const { return model().transfer_time(n); }
};

}  // namespace ditto::storage
