// Chunk-granular exchange protocol (DESIGN.md §14): deterministic
// chunk sequencing, cooperative idempotent publishes, non-destructive
// streaming cursors, and the reset_producer re-publish contract that
// keeps a mid-stream consumer's view byte-identical across a producer
// loss. These tests pin the invariants the pipelined engine mode
// relies on; the fault-storm identity tests in engine_pipeline_test
// exercise the same machinery end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/exchange.h"
#include "exec/serde.h"
#include "storage/sim_store.h"
#include "support/tables.h"

namespace ditto::exec {
namespace {

Table keyed(std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> k, v;
  for (std::int64_t i = lo; i < hi; ++i) {
    k.push_back(i);
    v.push_back(i * 10);
  }
  return table_of_ints({{"k", k}, {"v", v}});
}

std::vector<ServerId> servers(std::initializer_list<ServerId> v) { return v; }

/// Wrapper failing the next N puts — simulates a storage error that
/// outlives the fabric's retry budget mid-stream.
class FailPutsStore final : public storage::ObjectStore {
 public:
  explicit FailPutsStore(storage::ObjectStore& inner) : inner_(&inner) {}
  void fail_next_puts(int n) { fail_.store(n); }

  const char* kind() const override { return "fail-puts"; }
  const storage::StorageModel& model() const override { return inner_->model(); }
  Status put(const std::string& key, std::string_view value) override {
    int n = fail_.load();
    while (n > 0 && !fail_.compare_exchange_weak(n, n - 1)) {
    }
    if (n > 0) return Status::unavailable("injected put failure");
    return inner_->put(key, value);
  }
  Result<std::string> get(const std::string& key) const override { return inner_->get(key); }
  bool contains(const std::string& key) const override { return inner_->contains(key); }
  Status remove(const std::string& key) override { return inner_->remove(key); }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  Bytes used_bytes() const override { return inner_->used_bytes(); }
  storage::StoreStats stats() const override { return inner_->stats(); }

 private:
  storage::ObjectStore* inner_;
  std::atomic<int> fail_{0};
};

std::string table_bytes(const Table& t) {
  return *serialize_table(t);
}

/// Drains a cursor and concatenates, mirroring what a streaming
/// consumer sees.
Result<Table> drain_cursor(ChunkCursor& cur) {
  std::vector<Table> chunks;
  while (true) {
    DITTO_ASSIGN_OR_RETURN(auto chunk, cur.next());
    if (!chunk.has_value()) break;
    chunks.push_back(**chunk);
  }
  if (chunks.empty()) return Status::invalid_argument("empty cursor");
  return concat_tables(std::move(chunks));
}

TEST(ChunkedExchangeTest, CursorConcatMatchesRecvAllByteIdentically) {
  // Mixed local/remote pipes; chunk_rows far below the table size so
  // every producer streams several chunks.
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0, 1}), servers({0, 1}), *store, "x");
  ASSERT_TRUE(ex.send_chunked(0, keyed(0, 100), 16).is_ok());
  ASSERT_TRUE(ex.send_chunked(1, keyed(100, 200), 16).is_ok());
  // 100 rows / 16 per chunk = 7 chunks per producer.
  EXPECT_EQ(ex.stats().chunks_published, 14u);

  for (std::size_t j = 0; j < 2; ++j) {
    ChunkCursor cur = ex.open_cursor(j);
    const auto streamed = drain_cursor(cur);
    ASSERT_TRUE(streamed.ok()) << streamed.status().to_string();
    const auto gathered = ex.recv_all(j);
    ASSERT_TRUE(gathered.ok());
    EXPECT_EQ(table_bytes(*streamed), table_bytes(*gathered));
    EXPECT_GT(cur.bytes_read(), 0u);
  }
  EXPECT_GT(ex.stats().chunks_consumed, 0u);
}

TEST(ChunkedExchangeTest, ConsumerStartsBeforeProducerFinishes) {
  // The producer parks in its inter-chunk tick until the consumer has
  // observed the first chunk — only possible if chunks are visible
  // before the stream is sealed.
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0}), *store, "x");

  std::mutex mu;
  std::condition_variable cv;
  bool first_chunk_seen = false;
  int ticks = 0;  // producer thread only
  auto tick = [&]() -> Status {
    // The tick fires before each chunk routes; chunk 0 must go out
    // before the consumer can see anything, so only park from chunk 1.
    if (++ticks == 1) return Status::ok();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return first_chunk_seen; });
    return Status::ok();
  };
  std::thread producer([&] {
    EXPECT_TRUE(ex.send_chunked(0, keyed(0, 64), 16, tick).is_ok());
  });

  ChunkCursor cur = ex.open_cursor(0);
  const auto first = cur.next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  {
    std::lock_guard<std::mutex> lock(mu);
    first_chunk_seen = true;
  }
  cv.notify_all();
  producer.join();

  const auto rest = drain_cursor(cur);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ((**first)->num_rows() + rest->num_rows(), 64u);
}

TEST(ChunkedExchangeTest, ConcurrentDuplicatePublishesCooperate) {
  // Two attempts of the same producer stream concurrently (speculative
  // duplicate): every chunk must be routed exactly once and the merged
  // consumer view must match a single clean publish.
  auto clean_store = storage::make_instant_store();
  Exchange clean(ExchangeKind::kShuffle, "k", servers({0}), servers({0, 1}), *clean_store,
                 "x");
  ASSERT_TRUE(clean.send_chunked(0, keyed(0, 200), 16).is_ok());

  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0, 1}), *store, "x");
  std::thread a([&] { EXPECT_TRUE(ex.send_chunked(0, keyed(0, 200), 16).is_ok()); });
  std::thread b([&] { EXPECT_TRUE(ex.send_chunked(0, keyed(0, 200), 16).is_ok()); });
  a.join();
  b.join();

  EXPECT_EQ(ex.stats().chunks_published, 13u);  // ceil(200/16), counted once
  for (std::size_t j = 0; j < 2; ++j) {
    const auto got = ex.recv_all(j);
    const auto want = clean.recv_all(j);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(table_bytes(*got), table_bytes(*want));
  }
}

TEST(ChunkedExchangeTest, ResetMidStreamRepublishIsSeamlessToConsumer) {
  // A producer dies between chunks, the engine resets it and a recovery
  // attempt re-publishes from chunk 0 while consumers are already
  // mid-stream. Each consumer must observe a byte-identical sequence —
  // never a mixed old/new stream — on its local pipe (consumer 0 shares
  // the producer's server) and on its remote pipe (consumer 1) alike.
  auto clean_store = storage::make_instant_store();
  Exchange clean(ExchangeKind::kShuffle, "k", servers({0}), servers({0, 1}), *clean_store,
                 "x");
  ASSERT_TRUE(clean.send_chunked(0, keyed(0, 128), 16).is_ok());
  std::vector<std::string> want;
  for (std::size_t j = 0; j < 2; ++j) {
    const auto t = clean.recv_all(j);
    ASSERT_TRUE(t.ok());
    want.push_back(table_bytes(*t));
  }

  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0, 1}), *store, "x");
  ASSERT_TRUE(ex.producer_has_local_channel(0));

  // Consumers start streaming immediately.
  std::vector<std::string> streamed_bytes(2);
  std::vector<std::thread> consumers;
  for (std::size_t j = 0; j < 2; ++j) {
    consumers.emplace_back([&, j] {
      ChunkCursor cur = ex.open_cursor(j);
      const auto got = drain_cursor(cur);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      streamed_bytes[j] = table_bytes(*got);
    });
  }

  // First attempt crashes before its second chunk (tick error = the task
  // died; the stream is left partially published).
  int ticks = 0;
  auto die_at_second_tick = [&]() -> Status {
    return ++ticks >= 2 ? Status::internal("producer crashed") : Status::ok();
  };
  EXPECT_FALSE(ex.send_chunked(0, keyed(0, 128), 16, die_at_second_tick).is_ok());

  // Server-loss recovery: drop the partial stream, re-run the producer.
  ex.reset_producer(0);
  ASSERT_TRUE(ex.send_chunked(0, keyed(0, 128), 16).is_ok());
  for (std::thread& t : consumers) t.join();

  for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(streamed_bytes[j], want[j]) << "consumer " << j;
  EXPECT_EQ(ex.stats().producers_reset, 1u);
}

TEST(ChunkedExchangeTest, RollbackOnRouteFailureRestartsFromChunkZero) {
  // A mid-stream routing failure (storage error past the retry budget)
  // rolls the stream back to chunk 0; the retrying attempt re-drives
  // the whole sequence and consumers still see one clean stream.
  auto sim = storage::make_instant_store();
  Exchange clean(ExchangeKind::kShuffle, "k", servers({0, 1}), servers({1}), *sim, "c");
  ASSERT_TRUE(clean.send_chunked(0, keyed(0, 80), 16).is_ok());
  ASSERT_TRUE(clean.send_chunked(1, keyed(80, 90), 16).is_ok());
  const auto want = clean.recv_all(0);
  ASSERT_TRUE(want.ok());

  auto store = storage::make_instant_store();
  FailPutsStore flaky(*store);
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0, 1}), servers({1}), flaky, "c");
  flaky.fail_next_puts(1);  // chunk 0's remote put fails -> rollback
  EXPECT_FALSE(ex.send_chunked(0, keyed(0, 80), 16).is_ok());
  ASSERT_TRUE(ex.send_chunked(0, keyed(0, 80), 16).is_ok());  // retry attempt
  ASSERT_TRUE(ex.send_chunked(1, keyed(80, 90), 16).is_ok());
  const auto got = ex.recv_all(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(table_bytes(*got), table_bytes(*want));
}

TEST(ChunkedExchangeTest, ZeroRowProducerPublishesOneSchemaChunk) {
  // A producer with no output still publishes exactly one empty chunk:
  // consumers need the schema to build their merged input.
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0}), *store, "x");
  ASSERT_TRUE(ex.send_chunked(0, keyed(0, 0), 16).is_ok());
  EXPECT_EQ(ex.stats().chunks_published, 1u);

  ChunkCursor cur = ex.open_cursor(0);
  const auto chunk = cur.next();
  ASSERT_TRUE(chunk.ok());
  ASSERT_TRUE(chunk->has_value());
  EXPECT_EQ((**chunk)->num_rows(), 0u);
  EXPECT_GE((**chunk)->num_columns(), 1u);
  const auto end = cur.next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(ChunkedExchangeTest, CancelFailsBlockedCursor) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0}), *store, "x");
  std::atomic<bool> failed{false};
  std::thread consumer([&] {
    ChunkCursor cur = ex.open_cursor(0);
    const auto chunk = cur.next();  // blocks: nothing published
    EXPECT_FALSE(chunk.ok());
    failed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(failed.load());
  ex.cancel();
  consumer.join();
  EXPECT_TRUE(failed.load());
}

TEST(ChunkedExchangeTest, GatherCursorOnlySeesItsProducer) {
  // Gather routes producer i to consumer i % consumers; a cursor must
  // skip the producers that feed other consumers instead of blocking
  // on channels that never receive.
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kGather, "", servers({0, 0, 0}), servers({0, 0}), *store, "g");
  ASSERT_TRUE(ex.send_chunked(0, keyed(0, 40), 16).is_ok());
  ASSERT_TRUE(ex.send_chunked(1, keyed(40, 80), 16).is_ok());
  ASSERT_TRUE(ex.send_chunked(2, keyed(80, 120), 16).is_ok());
  // Consumer 0 gets producers 0 and 2; consumer 1 gets producer 1.
  ChunkCursor c0 = ex.open_cursor(0);
  const auto t0 = drain_cursor(c0);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(t0->num_rows(), 80u);
  ChunkCursor c1 = ex.open_cursor(1);
  const auto t1 = drain_cursor(c1);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1->num_rows(), 40u);
  for (std::int64_t k : t1->column_by_name("k").ints()) {
    EXPECT_GE(k, 40);
    EXPECT_LT(k, 80);
  }
}

TEST(ChunkedExchangeTest, LegacySendIsTheSingleChunkSpecialCase) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 50)).is_ok());
  EXPECT_EQ(ex.stats().chunks_published, 1u);
  ChunkCursor cur = ex.open_cursor(0);
  const auto t = drain_cursor(cur);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 50u);
}

}  // namespace
}  // namespace ditto::exec
