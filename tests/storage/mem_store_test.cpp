#include "storage/mem_store.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

namespace ditto::storage {
namespace {

TEST(MemStoreTest, PutGetRoundTrip) {
  MemStore store;
  ASSERT_TRUE(store.put("k", "value").is_ok());
  const auto v = store.get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "value");
}

TEST(MemStoreTest, GetMissingIsNotFound) {
  MemStore store;
  EXPECT_EQ(store.get("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(MemStoreTest, OverwriteUpdatesUsedBytes) {
  MemStore store;
  ASSERT_TRUE(store.put("k", "12345").is_ok());
  EXPECT_EQ(store.used_bytes(), 5u);
  ASSERT_TRUE(store.put("k", "12").is_ok());
  EXPECT_EQ(store.used_bytes(), 2u);
}

TEST(MemStoreTest, RemoveFreesSpace) {
  MemStore store;
  ASSERT_TRUE(store.put("k", "abc").is_ok());
  ASSERT_TRUE(store.remove("k").is_ok());
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_FALSE(store.contains("k"));
  EXPECT_EQ(store.remove("k").code(), StatusCode::kNotFound);
}

TEST(MemStoreTest, CapacityEnforced) {
  StorageModel model;
  model.capacity = 10;
  MemStore store(model, "bounded");
  ASSERT_TRUE(store.put("a", "12345").is_ok());
  ASSERT_TRUE(store.put("b", "12345").is_ok());
  EXPECT_EQ(store.put("c", "x").code(), StatusCode::kResourceExhausted);
  // Overwriting within capacity is fine.
  EXPECT_TRUE(store.put("a", "123").is_ok());
  EXPECT_TRUE(store.put("c", "xx").is_ok());
}

TEST(MemStoreTest, ExhaustedPutWritesNothing) {
  // A RESOURCE_EXHAUSTED put must be all-or-nothing: the key does not
  // appear and accounting is untouched, so a caller that frees space
  // and re-puts gets a clean overwrite, never a partial object.
  StorageModel model;
  model.capacity = 6;
  MemStore store(model, "bounded");
  ASSERT_TRUE(store.put("a", "123456").is_ok());
  EXPECT_EQ(store.put("b", "xy").code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(store.contains("b"));
  EXPECT_EQ(store.get("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.used_bytes(), 6u);
  // Free space, retry: succeeds.
  ASSERT_TRUE(store.remove("a").is_ok());
  EXPECT_TRUE(store.put("b", "xy").is_ok());
}

TEST(MemStoreTest, RejectedPutsCountedSeparately) {
  StorageModel model;
  model.capacity = 4;
  MemStore store(model, "bounded");
  ASSERT_TRUE(store.put("a", "1234").is_ok());
  EXPECT_EQ(store.put("b", "x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store.put("b", "x").code(), StatusCode::kResourceExhausted);
  const StoreStats st = store.stats();
  EXPECT_EQ(st.puts, 1u) << "rejected puts are not puts";
  EXPECT_EQ(st.rejected, 2u);
  EXPECT_EQ(st.bytes_written, 4u) << "rejected puts move no bytes";
}

TEST(MemStoreTest, ListByPrefix) {
  MemStore store;
  ASSERT_TRUE(store.put("job1/s0", "a").is_ok());
  ASSERT_TRUE(store.put("job1/s1", "b").is_ok());
  ASSERT_TRUE(store.put("job2/s0", "c").is_ok());
  EXPECT_EQ(store.list("job1/").size(), 2u);
  EXPECT_EQ(store.list("").size(), 3u);
  EXPECT_TRUE(store.list("nope").empty());
}

TEST(MemStoreTest, StatsTrackTraffic) {
  MemStore store;
  ASSERT_TRUE(store.put("k", "abcd").is_ok());
  (void)store.get("k");
  const StoreStats st = store.stats();
  EXPECT_EQ(st.puts, 1u);
  EXPECT_EQ(st.gets, 1u);
  EXPECT_EQ(st.bytes_written, 4u);
  EXPECT_EQ(st.bytes_read, 4u);
}

TEST(MemStoreTest, ClearResets) {
  MemStore store;
  ASSERT_TRUE(store.put("k", "abcd").is_ok());
  store.clear();
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_FALSE(store.contains("k"));
}

// Concurrent put / overwrite / get / remove of MiB-sized values on
// shared keys. MemStore copies payload bytes outside its lock, so these
// check that no reader ever sees a torn or mixed value and that the
// accounting (used bytes, stats, capacity) stays exact under contention.
constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr int kWriters = 4;
constexpr int kReaders = 2;
constexpr int kIters = 24;
const std::array<std::string, 3> kKeys{"k0", "k1", "k2"};

/// Writer w's j-th value: one byte repeated, distinct per writer, and a
/// length distinct per (w, j), so a torn read cannot pass for a value.
std::string value_of(int w, int j) {
  return std::string(kMiB + static_cast<std::size_t>(w * kIters + j) * 64,
                     static_cast<char>('a' + w));
}

/// True when `v` is exactly value_of(w, j) for some writer w and j.
bool is_written_value(const std::string& v) {
  if (v.size() < kMiB || (v.size() - kMiB) % 64 != 0) return false;
  const std::size_t w = (v.size() - kMiB) / 64 / kIters;
  return w < kWriters && v[0] == static_cast<char>('a' + w) &&
         v.find_first_not_of(v[0]) == std::string::npos;
}

struct Tally {
  std::atomic<std::size_t> puts{0}, bytes_written{0}, rejected{0}, other_errors{0};
  std::atomic<std::size_t> gets{0}, torn{0}, over_capacity{0};
};

/// Runs the writers, readers and a capacity monitor to completion.
/// Every 8th writer step removes its key instead of putting.
void hammer(MemStore& store, Tally& tally) {
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &tally, &done] {
      while (!done.load()) {
        for (const std::string& key : kKeys) {
          const auto v = store.get(key);
          ++tally.gets;
          if (v.ok() ? !is_written_value(*v) : v.status().code() != StatusCode::kNotFound) {
            ++tally.torn;
          }
        }
      }
    });
  }
  std::thread monitor([&store, &tally, &done] {
    const Bytes capacity = store.model().capacity;
    while (!done.load()) {
      if (capacity > 0 && store.used_bytes() > capacity) ++tally.over_capacity;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, &tally, w] {
      for (int j = 0; j < kIters; ++j) {
        const std::string& key = kKeys[static_cast<std::size_t>(w + j) % kKeys.size()];
        if (j % 8 == 7) {
          (void)store.remove(key);
          continue;
        }
        const std::string v = value_of(w, j);
        const Status st = store.put(key, v);
        if (st.is_ok()) {
          ++tally.puts;
          tally.bytes_written += v.size();
        } else if (st.code() == StatusCode::kResourceExhausted) {
          ++tally.rejected;
        } else {
          ++tally.other_errors;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done = true;
  for (std::thread& t : readers) t.join();
  monitor.join();
}

/// After the run: stats match the tallies, and used_bytes() is exactly
/// the sum of the values still live.
void expect_exact_accounting(const MemStore& store, const Tally& tally) {
  const StoreStats st = store.stats();
  EXPECT_EQ(tally.torn.load(), 0u);
  EXPECT_EQ(tally.other_errors.load(), 0u);
  EXPECT_EQ(st.puts, tally.puts.load());
  EXPECT_EQ(st.bytes_written, tally.bytes_written.load());
  EXPECT_EQ(st.rejected, tally.rejected.load());
  EXPECT_EQ(st.gets, tally.gets.load());
  Bytes live = 0;
  for (const std::string& key : kKeys) {
    const auto v = store.get(key);
    if (v.ok()) {
      EXPECT_TRUE(is_written_value(*v)) << key;
      live += v->size();
    }
  }
  EXPECT_EQ(store.used_bytes(), live);
}

TEST(MemStoreConcurrencyTest, ReadersSeeWholeValuesAndAccountingIsExact) {
  MemStore store;
  Tally tally;
  hammer(store, tally);
  expect_exact_accounting(store, tally);
  EXPECT_EQ(tally.rejected.load(), 0u);
  EXPECT_EQ(tally.puts.load(), static_cast<std::size_t>(kWriters * (kIters - kIters / 8)));
}

TEST(MemStoreConcurrencyTest, BoundedStoreNeverExceedsCapacity) {
  // Room for one value (at most 1 MiB + 6 KiB) but never two: an
  // overwrite always fits, a put to a second key while one is live is
  // rejected. Writers rotate over the keys, so rejections are certain.
  StorageModel model;
  model.capacity = kMiB * 3 / 2;
  MemStore store(model, "bounded");
  Tally tally;
  hammer(store, tally);
  expect_exact_accounting(store, tally);
  EXPECT_EQ(tally.over_capacity.load(), 0u);
  EXPECT_GT(tally.rejected.load(), 0u);
  EXPECT_GT(tally.puts.load(), 0u);
  EXPECT_LE(store.used_bytes(), model.capacity);
}

// ---- Shared payloads: put_payload keeps the caller's pointer and
// get_payload hands it back, with the same accounting as put/get.

Payload payload_of(std::string s) { return std::make_shared<const std::string>(std::move(s)); }

TEST(MemStorePayloadTest, GetPayloadReturnsThePointerThatWasPut) {
  MemStore store;
  const Payload put = payload_of("shared bytes");
  ASSERT_TRUE(store.put_payload("k", put).is_ok());
  const auto got = store.get_payload("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), put.get()) << "get_payload must not copy";
  EXPECT_EQ(**got, "shared bytes");
  // The copying wrappers see the same value.
  const auto copy = store.get("k");
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(*copy, "shared bytes");
  EXPECT_NE(static_cast<const void*>(copy->data()), static_cast<const void*>(put->data()));
}

TEST(MemStorePayloadTest, MissAndNullPayloadAreErrors) {
  MemStore store;
  EXPECT_EQ(store.get_payload("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.put_payload("k", nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(store.contains("k"));
  EXPECT_EQ(store.stats().puts, 0u);
}

/// Stats and used bytes compared field by field.
void expect_same_accounting(const MemStore& a, const MemStore& b, const char* step) {
  const StoreStats sa = a.stats();
  const StoreStats sb = b.stats();
  EXPECT_EQ(a.used_bytes(), b.used_bytes()) << step;
  EXPECT_EQ(sa.puts, sb.puts) << step;
  EXPECT_EQ(sa.gets, sb.gets) << step;
  EXPECT_EQ(sa.misses, sb.misses) << step;
  EXPECT_EQ(sa.rejected, sb.rejected) << step;
  EXPECT_EQ(sa.bytes_written, sb.bytes_written) << step;
  EXPECT_EQ(sa.bytes_read, sb.bytes_read) << step;
}

TEST(MemStorePayloadTest, AccountingMatchesPutThroughRejectOverwriteRemoveAndClear) {
  StorageModel model;
  model.capacity = 10;
  MemStore by_copy(model, "bounded");
  MemStore by_payload(model, "bounded");
  const auto both = [&](const std::string& key, const std::string& value) {
    const Status a = by_copy.put(key, value);
    const Status b = by_payload.put_payload(key, payload_of(value));
    EXPECT_EQ(a.code(), b.code()) << key << "=" << value;
    return b.code();
  };
  EXPECT_EQ(both("a", "12345"), StatusCode::kOk);
  EXPECT_EQ(both("b", "1234"), StatusCode::kOk);
  expect_same_accounting(by_copy, by_payload, "two puts");
  EXPECT_EQ(both("c", "xx"), StatusCode::kResourceExhausted);
  EXPECT_FALSE(by_payload.contains("c"));
  expect_same_accounting(by_copy, by_payload, "rejected put");
  EXPECT_EQ(by_payload.stats().rejected, 1u);
  EXPECT_EQ(both("a", "123456"), StatusCode::kOk);  // overwrite grows within capacity
  expect_same_accounting(by_copy, by_payload, "overwrite");
  EXPECT_EQ(by_payload.used_bytes(), 10u);
  (void)by_copy.get("a");
  (void)by_payload.get_payload("a");
  (void)by_copy.get("gone");
  (void)by_payload.get_payload("gone");
  expect_same_accounting(by_copy, by_payload, "gets");
  ASSERT_TRUE(by_copy.remove("a").is_ok());
  ASSERT_TRUE(by_payload.remove("a").is_ok());
  expect_same_accounting(by_copy, by_payload, "remove");
  EXPECT_EQ(by_payload.used_bytes(), 4u);
  by_copy.clear();
  by_payload.clear();
  expect_same_accounting(by_copy, by_payload, "clear");
  EXPECT_EQ(by_payload.used_bytes(), 0u);
}

TEST(MemStorePayloadTest, ReadPayloadOutlivesOverwriteRemoveAndClear) {
  MemStore store;
  ASSERT_TRUE(store.put_payload("k", payload_of("first")).is_ok());
  const auto first = store.get_payload("k");
  ASSERT_TRUE(store.put_payload("k", payload_of("second")).is_ok());
  const auto second = store.get_payload("k");
  ASSERT_TRUE(store.remove("k").is_ok());
  ASSERT_TRUE(store.put("k", "third").is_ok());
  const auto third = store.get_payload("k");
  store.clear();
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  EXPECT_EQ(**first, "first");
  EXPECT_EQ(**second, "second");
  EXPECT_EQ(**third, "third");
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(MemStorePayloadTest, ConcurrentPayloadReadersSeeWholeValues) {
  MemStore store;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> torn{0};
  std::thread reader([&] {
    while (!done.load()) {
      const auto v = store.get_payload("k");
      if (v.ok() && (*v)->find_first_not_of((**v)[0]) != std::string::npos) ++torn;
    }
  });
  for (int j = 0; j < 200; ++j) {
    EXPECT_TRUE(
        store.put_payload("k", payload_of(std::string(4096 + j, static_cast<char>('a' + j % 26))))
            .is_ok());
    if (j % 16 == 15) {
      EXPECT_TRUE(store.remove("k").is_ok());
    }
  }
  done = true;
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  const auto last = store.get_payload("k");
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(store.used_bytes(), (*last)->size());
}

TEST(StorageModelTest, TransferTimeLatencyPlusBandwidth) {
  StorageModel m;
  m.request_latency = 0.01;
  m.bandwidth_bytes_per_s = 100.0;
  EXPECT_NEAR(m.transfer_time(50), 0.01 + 0.5, 1e-12);
  StorageModel infinite;
  EXPECT_DOUBLE_EQ(infinite.transfer_time(1_GB), 0.0);
}

TEST(StorageModelTest, PersistenceCost) {
  StorageModel m;
  m.cost_per_gb_second = 2.0;
  EXPECT_NEAR(m.persistence_cost(5_GB, 3.0), 2.0 * 5.0 * 3.0, 1e-9);
}

}  // namespace
}  // namespace ditto::storage
