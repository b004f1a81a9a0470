// Factory functions for the two external stores of the paper's testbed,
// plus the direct-network model of its §7 discussion.
//
// Parameters follow published service characteristics:
//   S3:    ~30 ms time-to-first-byte, ~90 MB/s per connection,
//          priced >1000x below memory — the paper ignores S3 cost.
//   Redis: ~0.3 ms request latency, ~1.25 GB/s (10 GbE ElastiCache
//          node), bounded capacity (two cache.r5.4xlarge = 228 GB),
//          memory-priced per GB-second.
#pragma once

#include <memory>

#include "storage/mem_store.h"

namespace ditto::storage {

/// StorageModel matching Amazon S3 access characteristics.
StorageModel s3_model();

/// StorageModel matching an ElastiCache Redis deployment of the paper's
/// size (2 nodes, 114 GB each).
StorageModel redis_model();

/// Direct server-to-server transfer model (paper §7: "Ditto's design is
/// suitable for ... direct communication over network", e.g. Knative):
/// ~1 ms connection overhead, 10 GbE bandwidth, nothing persisted so no
/// storage cost, unbounded.
StorageModel direct_network_model();

std::unique_ptr<MemStore> make_redis_sim();

/// Zero-latency, unbounded, free store (unit tests, debugging).
std::unique_ptr<MemStore> make_instant_store();

}  // namespace ditto::storage
