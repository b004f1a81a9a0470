#include "storage/sim_store.h"

namespace ditto::storage {

StorageModel s3_model() {
  StorageModel m;
  m.request_latency = 0.030;          // ~30 ms first byte
  m.bandwidth_bytes_per_s = 90e6;     // ~90 MB/s per connection
  m.cost_per_gb_second = 8.9e-9;      // $0.023/GB-month — negligible, per paper §6
  m.capacity = 0;                     // unbounded
  return m;
}

StorageModel redis_model() {
  StorageModel m;
  m.request_latency = 0.0003;         // ~300 us
  m.bandwidth_bytes_per_s = 1.25e9;   // 10 GbE node
  m.cost_per_gb_second = 1.6e-5;      // ElastiCache r5 memory pricing
  m.capacity = 228_GB;                // 2x cache.r5.4xlarge (114 GB each)
  return m;
}

StorageModel direct_network_model() {
  StorageModel m;
  m.request_latency = 0.001;         // connection setup
  m.bandwidth_bytes_per_s = 1.25e9;  // 10 GbE
  m.cost_per_gb_second = 0.0;        // nothing persisted
  m.capacity = 0;
  return m;
}

std::unique_ptr<MemStore> make_redis_sim() {
  return std::make_unique<MemStore>(redis_model(), "redis");
}

std::unique_ptr<MemStore> make_instant_store() {
  return std::make_unique<MemStore>(StorageModel{}, "instant");
}

}  // namespace ditto::storage
