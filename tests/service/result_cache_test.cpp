// ResultCache unit behavior: keying, LRU byte-bounded eviction,
// idempotent insert, job-level accounting, and ObjectStore persistence
// (round-trip, torn save, corrupt index).
#include "service/result_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "storage/sim_store.h"

namespace ditto::service {
namespace {

CacheIdentity ident(std::uint64_t fp, const std::string& sig, std::uint64_t version = 0) {
  CacheIdentity id;
  id.plan_fingerprint = fp;
  id.input_signature = sig;
  id.input_version = version;
  return id;
}

std::string payload(char fill, std::size_t n) { return std::string(n, fill); }

storage::Payload shared(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

TEST(CacheIdentityTest, EnabledRequiresFingerprintAndSignature) {
  EXPECT_FALSE(CacheIdentity{}.enabled());
  EXPECT_FALSE(ident(0, "sig").enabled());
  EXPECT_FALSE(ident(7, "").enabled());
  EXPECT_TRUE(ident(7, "sig").enabled());
}

TEST(CacheIdentityTest, KeySeparatesVersionsAndIsWhitespaceFree) {
  const std::string k0 = ident(7, "rows=100", 0).key();
  const std::string k1 = ident(7, "rows=100", 1).key();
  EXPECT_NE(k0, k1);
  EXPECT_EQ(k0.find(' '), std::string::npos);
  EXPECT_EQ(k0.find('\n'), std::string::npos);
  // Same identity -> same key (stable across instances).
  EXPECT_EQ(k0, ident(7, "rows=100", 0).key());
}

TEST(ResultCacheTest, LookupMissThenHit) {
  ResultCache cache(1_MB);
  const CacheIdentity id = ident(1, "a");
  EXPECT_FALSE(cache.lookup(id, 0).has_value());
  EXPECT_FALSE(cache.contains(id, 0));

  cache.insert(id, 0, shared(payload('x', 100)), 2.5);
  ASSERT_TRUE(cache.contains(id, 0));
  const auto hit = cache.lookup(id, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->bytes, payload('x', 100));
  EXPECT_DOUBLE_EQ(hit->slot_seconds, 2.5);

  // Different stage, version, or signature: distinct entries.
  EXPECT_FALSE(cache.contains(id, 1));
  EXPECT_FALSE(cache.contains(ident(1, "a", 1), 0));
  EXPECT_FALSE(cache.contains(ident(1, "b"), 0));
}

TEST(ResultCacheTest, ReinsertReplacesBytes) {
  ResultCache cache(1_MB);
  const CacheIdentity id = ident(1, "a");
  cache.insert(id, 0, shared(payload('x', 100)));
  cache.insert(id, 0, shared(payload('y', 50)));
  const auto hit = cache.lookup(id, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->bytes, payload('y', 50));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.used_bytes(), 50u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  ResultCache cache(250);
  const CacheIdentity id = ident(1, "a");
  cache.insert(id, 0, shared(payload('a', 100)));
  cache.insert(id, 1, shared(payload('b', 100)));
  // Refresh stage 0's recency; the next insert must evict stage 1.
  ASSERT_TRUE(cache.lookup(id, 0).has_value());
  cache.insert(id, 2, shared(payload('c', 100)));

  EXPECT_TRUE(cache.contains(id, 0));
  EXPECT_FALSE(cache.contains(id, 1));
  EXPECT_TRUE(cache.contains(id, 2));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.used_bytes(), 250u);
}

TEST(ResultCacheTest, OversizeEntryIsDropped) {
  ResultCache cache(100);
  const CacheIdentity id = ident(1, "a");
  cache.insert(id, 0, shared(payload('x', 101)));
  EXPECT_FALSE(cache.contains(id, 0));
  EXPECT_EQ(cache.stats().entries, 0u);
  // It must not have evicted resident entries to make doomed room.
  cache.insert(id, 1, shared(payload('y', 60)));
  cache.insert(id, 0, shared(payload('x', 101)));
  EXPECT_TRUE(cache.contains(id, 1));
}

TEST(ResultCacheTest, ZeroCapacityIsUnbounded) {
  ResultCache cache(0);
  const CacheIdentity id = ident(1, "a");
  for (StageId s = 0; s < 50; ++s) cache.insert(id, s, shared(payload('x', 1000)));
  EXPECT_EQ(cache.stats().entries, 50u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResultCacheTest, RemoveDropsEntry) {
  ResultCache cache(1_MB);
  const CacheIdentity id = ident(1, "a");
  cache.insert(id, 0, shared(payload('x', 10)));
  cache.remove(id, 0);
  EXPECT_FALSE(cache.contains(id, 0));
  cache.remove(id, 0);  // no-op when absent
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(ResultCacheTest, JobLevelAccounting) {
  ResultCache cache(1_MB);
  cache.note_hit(4.0);
  cache.note_hit(1.0);
  cache.note_partial_hit(0.5);
  cache.note_miss();
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.partial_hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_DOUBLE_EQ(s.slot_seconds_saved, 5.5);
}

TEST(ResultCachePersistTest, SaveLoadRoundTrip) {
  auto store = storage::make_instant_store();
  const CacheIdentity id = ident(9, "rows=100,seed=1", 3);
  {
    ResultCache cache(1_MB);
    cache.insert(id, 0, shared(payload('x', 64)), 1.5);
    cache.insert(id, 2, shared(payload('y', 32)), 1.5);
    ASSERT_TRUE(cache.save(*store, "cache").is_ok());
  }
  ResultCache warm(1_MB);
  ASSERT_TRUE(warm.load(*store, "cache").is_ok());
  const auto hit0 = warm.lookup(id, 0);
  ASSERT_TRUE(hit0.has_value());
  EXPECT_EQ(*hit0->bytes, payload('x', 64));
  EXPECT_DOUBLE_EQ(hit0->slot_seconds, 1.5);
  ASSERT_TRUE(warm.contains(id, 2));
  EXPECT_EQ(warm.stats().entries, 2u);
}

TEST(ResultCachePersistTest, SaveAndLoadShareTheEntryPayload) {
  auto store = storage::make_instant_store();  // a MemStore
  const CacheIdentity id = ident(9, "sig");
  const storage::Payload bytes = shared(payload('x', 64));
  ResultCache cache(1_MB);
  cache.insert(id, 4, bytes);
  ASSERT_TRUE(cache.save(*store, "cache").is_ok());
  // The store keeps the cache's own Payload: saving copied no bytes.
  const auto stored = store->get_payload("cache/" + id.key() + "/stage-4");
  ASSERT_TRUE(stored.ok()) << stored.status().to_string();
  EXPECT_EQ(stored->get(), bytes.get());

  // Loading shares the stored Payload in turn.
  ResultCache warm(1_MB);
  ASSERT_TRUE(warm.load(*store, "cache").is_ok());
  const auto hit = warm.lookup(id, 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->bytes.get(), bytes.get());
}

TEST(ResultCachePersistTest, MissingIndexIsFreshStore) {
  auto store = storage::make_instant_store();
  ResultCache cache(1_MB);
  EXPECT_TRUE(cache.load(*store, "cache").is_ok());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCachePersistTest, CorruptIndexFailsAndLeavesCacheUntouched) {
  auto store = storage::make_instant_store();
  ASSERT_TRUE(store->put("cache/index", "not a valid index line\n").is_ok());
  ResultCache cache(1_MB);
  cache.insert(ident(1, "keep"), 0, shared(payload('k', 8)));
  const Status st = cache.load(*store, "cache");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.to_string();
  EXPECT_TRUE(cache.contains(ident(1, "keep"), 0));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCachePersistTest, TornSaveSkipsEntriesWithMissingBytes) {
  auto store = storage::make_instant_store();
  const CacheIdentity id = ident(9, "sig");
  {
    ResultCache cache(1_MB);
    cache.insert(id, 0, shared(payload('x', 64)));
    cache.insert(id, 1, shared(payload('y', 64)));
    ASSERT_TRUE(cache.save(*store, "cache").is_ok());
  }
  // Simulate the crash window: index written, one bytes object lost.
  bool removed = false;
  for (const std::string& key : store->list("cache/")) {
    if (key != "cache/index" && key.find("stage-1") != std::string::npos) {
      ASSERT_TRUE(store->remove(key).is_ok());
      removed = true;
    }
  }
  ASSERT_TRUE(removed);
  ResultCache warm(1_MB);
  ASSERT_TRUE(warm.load(*store, "cache").is_ok());
  EXPECT_TRUE(warm.contains(id, 0));
  EXPECT_FALSE(warm.contains(id, 1));
}

TEST(ResultCachePersistTest, LoadRespectsCapacity) {
  auto store = storage::make_instant_store();
  const CacheIdentity id = ident(9, "sig");
  {
    ResultCache cache(0);
    for (StageId s = 0; s < 4; ++s) cache.insert(id, s, shared(payload('x', 100)));
    ASSERT_TRUE(cache.save(*store, "cache").is_ok());
  }
  ResultCache small(150);
  ASSERT_TRUE(small.load(*store, "cache").is_ok());
  EXPECT_LE(small.used_bytes(), 150u);
  EXPECT_GE(small.stats().entries, 1u);
}

TEST(ResultCachePersistTest, SaveRemovesEvictedPersistedEntries) {
  auto store = storage::make_instant_store();
  ResultCache cache(220);
  const CacheIdentity id = ident(9, "sig");
  cache.insert(id, 0, shared(payload('a', 100)));
  cache.insert(id, 1, shared(payload('b', 100)));
  ASSERT_TRUE(cache.save(*store, "cache").is_ok());
  // Stage 0 is the LRU victim; after the next save its object is gone.
  cache.insert(id, 2, shared(payload('c', 100)));
  ASSERT_TRUE(cache.save(*store, "cache").is_ok());
  ResultCache warm(1_MB);
  ASSERT_TRUE(warm.load(*store, "cache").is_ok());
  EXPECT_FALSE(warm.contains(id, 0));
  EXPECT_TRUE(warm.contains(id, 1));
  EXPECT_TRUE(warm.contains(id, 2));
}

TEST(ResultCacheTest, ConcurrentMixedOperations) {
  ResultCache cache(64_KB);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      const CacheIdentity id = ident(static_cast<std::uint64_t>(t % 4 + 1), "sig");
      for (int i = 0; i < 200; ++i) {
        const StageId s = static_cast<StageId>(i % 8);
        cache.insert(id, s, shared(payload(static_cast<char>('a' + t), 64)), 0.1);
        if (const auto hit = cache.lookup(id, s)) {
          EXPECT_EQ(hit->bytes->size(), 64u);
        }
        if (i % 17 == 0) cache.remove(id, s);
        cache.note_miss();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.used_bytes(), 64_KB);
  EXPECT_EQ(cache.stats().misses, 8u * 200u);
}

}  // namespace
}  // namespace ditto::service
