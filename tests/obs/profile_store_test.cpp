// StageProfileStore: aggregation math, keying, and fingerprint hex.
#include "obs/profile_store.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ditto::obs {
namespace {

TaskSample sample(double task, double compute = 0.0, double transport = 0.0,
                  double queue = 0.0, int retries = 0) {
  TaskSample s;
  s.task_seconds = task;
  s.compute_seconds = compute;
  s.transport_seconds = transport;
  s.queue_seconds = queue;
  s.retries = retries;
  return s;
}

TEST(StageProfileTest, FirstSampleSeedsEwmas) {
  StageProfile p;
  p.add(sample(2.0, 1.5, 0.4, 0.1, 3));
  EXPECT_EQ(p.count, 1u);
  EXPECT_EQ(p.retries, 3u);
  EXPECT_DOUBLE_EQ(p.ewma_task, 2.0);
  EXPECT_DOUBLE_EQ(p.ewma_compute, 1.5);
  EXPECT_DOUBLE_EQ(p.ewma_transport, 0.4);
  EXPECT_DOUBLE_EQ(p.ewma_queue, 0.1);
}

TEST(StageProfileTest, EwmaTracksRecentRuns) {
  StageProfile p;
  p.add(sample(1.0));
  p.add(sample(2.0));
  // alpha = 0.2: 1.0 + 0.2 * (2.0 - 1.0)
  EXPECT_NEAR(p.ewma_task, 1.2, 1e-12);
  for (int i = 0; i < 200; ++i) p.add(sample(2.0));
  EXPECT_NEAR(p.ewma_task, 2.0, 1e-6);  // old calibration decays away
}

TEST(FingerprintHexTest, RoundTripsAndRejectsGarbage) {
  for (std::uint64_t fp : {0ull, 1ull, 0xdeadbeef01234567ull, ~0ull}) {
    const std::string hex = fingerprint_hex(fp);
    EXPECT_EQ(hex.size(), 16u);
    const auto back = parse_fingerprint_hex(hex);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, fp);
  }
  EXPECT_FALSE(parse_fingerprint_hex("").ok());
  EXPECT_FALSE(parse_fingerprint_hex("dead").ok());
  EXPECT_FALSE(parse_fingerprint_hex("zzzzzzzzzzzzzzzz").ok());
  EXPECT_FALSE(parse_fingerprint_hex("0123456789abcdefg").ok());
}

TEST(StageProfileStoreTest, RecordsKeyedByFingerprintStageDop) {
  StageProfileStore store;
  store.record(0xabc, 0, 4, sample(1.0));
  store.record(0xabc, 0, 4, sample(3.0));
  store.record(0xabc, 1, 8, sample(0.5));
  store.record(0xdef, 0, 4, sample(9.0));

  const auto p = store.lookup(0xabc, 0, 4);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->count, 2u);
  EXPECT_EQ(p->dop, 4);
  EXPECT_FALSE(store.lookup(0xabc, 0, 5).has_value());
  EXPECT_EQ(store.profiles_for(0xabc).size(), 2u);
  EXPECT_EQ(store.all().size(), 3u);
  EXPECT_EQ(store.size(), 3u);

  // Invalid keys are dropped silently rather than polluting history.
  store.record(0xabc, kNoStage, 4, sample(1.0));
  store.record(0xabc, 0, 0, sample(1.0));
  EXPECT_EQ(store.size(), 3u);
}

TEST(StageProfileTest, KernelEwmasSeedAndTrack) {
  StageProfile p;
  TaskSample s1 = sample(1.0, 0.8);
  s1.kernel_seconds = {{"group_by", 0.5}, {"join", 0.2}};
  p.add(s1);
  EXPECT_DOUBLE_EQ(p.ewma_kernel.at("group_by"), 0.5);
  EXPECT_DOUBLE_EQ(p.ewma_kernel.at("join"), 0.2);

  TaskSample s2 = sample(1.0, 0.8);
  s2.kernel_seconds = {{"group_by", 1.0}, {"filter", 0.1}};
  p.add(s2);
  // alpha = 0.2: 0.5 + 0.2 * (1.0 - 0.5); new key seeds; absent key holds.
  EXPECT_NEAR(p.ewma_kernel.at("group_by"), 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(p.ewma_kernel.at("filter"), 0.1);
  EXPECT_DOUBLE_EQ(p.ewma_kernel.at("join"), 0.2);
}

}  // namespace
}  // namespace ditto::obs
