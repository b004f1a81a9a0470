#include "storage/sim_store.h"

#include <gtest/gtest.h>

namespace ditto::storage {
namespace {

TEST(SimStoreTest, S3ModelShape) {
  const StorageModel m = s3_model();
  EXPECT_GT(m.request_latency, 0.01);          // tens of ms
  EXPECT_GT(m.bandwidth_bytes_per_s, 10e6);    // tens of MB/s
  EXPECT_EQ(m.capacity, 0u);                   // unbounded
  // Paper: S3 is priced >1000x below memory.
  EXPECT_LT(relative_to_memory_price(m), 1e-2);
}

TEST(SimStoreTest, RedisModelShape) {
  const StorageModel m = redis_model();
  EXPECT_LT(m.request_latency, 0.001);         // sub-ms
  EXPECT_GT(m.bandwidth_bytes_per_s, s3_model().bandwidth_bytes_per_s);
  EXPECT_GT(m.capacity, 0u);                   // bounded
  EXPECT_NEAR(relative_to_memory_price(m), 1.0, 0.1);
}

TEST(SimStoreTest, RedisFasterThanS3ForAnySize) {
  const StorageModel s3 = s3_model(), redis = redis_model();
  for (Bytes b : {1_KB, 1_MB, 100_MB, 1_GB}) {
    EXPECT_LT(redis.transfer_time(b), s3.transfer_time(b));
  }
}

TEST(SimStoreTest, FactoriesProduceWorkingStores) {
  auto redis = make_redis_sim();
  auto instant = make_instant_store();
  for (MemStore* store : {redis.get(), instant.get()}) {
    ASSERT_TRUE(store->put("k", "v").is_ok());
    EXPECT_EQ(store->get("k").value(), "v");
  }
  EXPECT_STREQ(redis->kind(), "redis");
}

TEST(SimStoreTest, RedisCapacityMatchesPaperDeployment) {
  // Two cache.r5.4xlarge = 228 GB; a 100 GB benchmark fits, 1 TB not.
  auto redis = make_redis_sim();
  EXPECT_GE(redis->model().capacity, 100_GB);
  EXPECT_LT(redis->model().capacity, 1000_GB);
}

TEST(SimStoreTest, RealDelayScaleSleepsProportionally) {
  StorageModel m;
  m.request_latency = 0.02;  // 20 ms
  MemStore store(m, "slow");
  store.set_real_delay_scale(1.0);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(store.put("k", "v").is_ok());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_GE(elapsed, 0.015);
}

TEST(DirectNetworkModelTest, FastAndFree) {
  const StorageModel m = direct_network_model();
  EXPECT_LT(m.request_latency, s3_model().request_latency);
  EXPECT_DOUBLE_EQ(m.cost_per_gb_second, 0.0);
  EXPECT_LT(m.transfer_time(1_GB), s3_model().transfer_time(1_GB));
}

}  // namespace
}  // namespace ditto::storage
