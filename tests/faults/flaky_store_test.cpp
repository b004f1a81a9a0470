#include "faults/flaky_store.h"

#include <gtest/gtest.h>

#include <string>

#include "common/stopwatch.h"
#include "faults/retry_policy.h"
#include "storage/mem_store.h"

namespace ditto::faults {
namespace {

TEST(FlakyStoreTest, NoFaultsArmedIsTransparent) {
  storage::MemStore inner;
  FaultInjector injector(FaultSpec{});
  FlakyStore flaky(inner, injector);
  ASSERT_TRUE(flaky.put("k", "value").is_ok());
  const auto v = flaky.get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "value");
  EXPECT_TRUE(flaky.contains("k"));
  EXPECT_EQ(flaky.used_bytes(), inner.used_bytes());
  EXPECT_EQ(std::string(flaky.kind()), "flaky-mem");
}

TEST(FlakyStoreTest, InjectedErrorFailsBeforeTouchingInner) {
  storage::MemStore inner;
  const auto spec = parse_fault_spec("storage_error=0.999,seed=3");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  FlakyStore flaky(inner, injector);
  // At 99.9% the very first put fails (deterministically for this seed).
  const Status st = flaky.put("k", "value");
  ASSERT_EQ(st.code(), StatusCode::kUnavailable);
  // The failed put wrote NOTHING: callers must retry, and the retry is
  // an idempotent full overwrite — never a partial write.
  EXPECT_FALSE(inner.contains("k"));
  EXPECT_EQ(inner.stats().puts, 0u);
}

TEST(FlakyStoreTest, InjectsOnThePayloadPath) {
  // FlakyStore keeps the default payload methods, which go through its
  // put/get: the same injected errors fire, and nothing reaches the
  // inner store on a failed put_payload.
  storage::MemStore inner;
  const auto spec = parse_fault_spec("storage_error=0.999,seed=3");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  FlakyStore flaky(inner, injector);
  const Status st = flaky.put_payload("k", std::make_shared<const std::string>("value"));
  ASSERT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(inner.contains("k"));
  EXPECT_EQ(inner.stats().puts, 0u);
  ASSERT_TRUE(inner.put("k", "value").is_ok());
  EXPECT_EQ(flaky.get_payload("k").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(inner.stats().gets, 0u);
}

TEST(FlakyStoreTest, PayloadPathIsTransparentWithoutFaults) {
  storage::MemStore inner;
  FaultInjector injector(FaultSpec{});
  FlakyStore flaky(inner, injector);
  ASSERT_TRUE(flaky.put_payload("k", std::make_shared<const std::string>("value")).is_ok());
  const auto v = flaky.get_payload("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, "value");
  EXPECT_EQ(inner.stats().puts, 1u);
  EXPECT_EQ(inner.stats().gets, 1u);
}

TEST(FlakyStoreTest, FailureSequenceIsDeterministic) {
  const auto spec = parse_fault_spec("storage_error=0.4,seed=17");
  ASSERT_TRUE(spec.ok());
  std::vector<bool> runs[2];
  for (auto& run : runs) {
    storage::MemStore inner;
    FaultInjector injector(*spec);
    FlakyStore flaky(inner, injector);
    for (int i = 0; i < 100; ++i) {
      run.push_back(flaky.put("edge/" + std::to_string(i % 5), "x").is_ok());
    }
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(FlakyStoreTest, RetryAbsorbsInjectedErrors) {
  storage::MemStore inner;
  const auto spec = parse_fault_spec("storage_error=0.5,seed=9");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  FlakyStore flaky(inner, injector);
  RetryPolicy pol;
  pol.max_attempts = 10;
  pol.initial_backoff = 1e-5;
  pol.max_backoff = 1e-4;
  std::atomic<std::size_t> retries{0};
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k/" + std::to_string(i);
    ASSERT_TRUE(retry_status(pol, "test.put",
                             [&] { return flaky.put(key, "payload"); }, &retries)
                    .is_ok());
    const auto v = retry_result<std::string>(pol, "test.get", [&] { return flaky.get(key); });
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "payload");
  }
  EXPECT_GT(retries.load(), 0u);
  EXPECT_GT(injector.counts().storage_errors, 0u);
}

TEST(FlakyStoreTest, InjectedDelayIsAdditive) {
  // Composition rule: total = inner modeled time + injected extra. The
  // MemStore here models zero time, so observed wall time ~= injected.
  storage::MemStore inner;
  const auto spec = parse_fault_spec("storage_delay=0.02");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  FlakyStore flaky(inner, injector);
  Stopwatch clock;
  ASSERT_TRUE(flaky.put("k", "v").is_ok());
  EXPECT_GE(clock.elapsed_seconds(), 0.015);
  EXPECT_EQ(injector.counts().storage_delays, 1u);
}

TEST(FlakyStoreTest, InnerErrorsPassThroughUnmapped) {
  // RESOURCE_EXHAUSTED from a capacity-bounded inner store must surface
  // as-is (permanent, not retriable), never be remapped to UNAVAILABLE.
  storage::StorageModel model;
  model.capacity = 4;
  storage::MemStore inner(model, "bounded");
  FaultInjector injector(FaultSpec{});
  FlakyStore flaky(inner, injector);
  ASSERT_TRUE(flaky.put("a", "1234").is_ok());
  const Status st = flaky.put("b", "x");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(RetryPolicy::retriable(st.code()));
  EXPECT_EQ(flaky.get("missing").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ditto::faults
