#include "exec/exchange.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

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

TEST(ExchangeTest, LocalPipeHandsBackTheSentTable) {
  // Same server: every read hands back the one routed Table object,
  // whose columns are the sent buffers — no serialization, no copy.
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kGather, "", servers({0}), servers({0}), *store, "x");
  Table t = keyed(0, 5);
  const std::int64_t* const sent = t.column(0).int_span().data();
  ASSERT_TRUE(ex.send(0, std::move(t)).is_ok());
  ChunkCursor a = ex.open_cursor(0);
  ChunkCursor b = ex.open_cursor(0);
  const auto first = a.next();
  const auto second = b.next();
  ASSERT_TRUE(first.ok() && first->has_value());
  ASSERT_TRUE(second.ok() && second->has_value());
  EXPECT_EQ(first->value().get(), second->value().get());  // literally the same Table
  EXPECT_EQ(first->value()->column(0).int_span().data(), sent);
  EXPECT_EQ(store->stats().puts, 0u);
  EXPECT_EQ(ex.stats().zero_copy_messages, 1u);
}

TEST(ExchangeTest, RemotePipeRoundTripsThroughStore) {
  // Different servers: the chunk takes one store put and comes back as
  // an equal but distinct, deserialized object.
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kGather, "", servers({0}), servers({1}), *store, "x");
  Table t = keyed(0, 5);
  const std::int64_t* const sent = t.column(0).int_span().data();
  ASSERT_TRUE(ex.send(0, std::move(t)).is_ok());
  ChunkCursor cur = ex.open_cursor(0);
  const auto out = cur.next();
  ASSERT_TRUE(out.ok() && out->has_value());
  EXPECT_EQ(*out->value(), keyed(0, 5));                    // equal content
  EXPECT_NE(out->value()->column(0).int_span().data(), sent);  // a different object
  EXPECT_EQ(store->stats().puts, 1u);
  EXPECT_TRUE(store->contains("x/0-0/0"));
  EXPECT_EQ(ex.stats().remote_messages, 1u);
}

TEST(ExchangeTest, ShuffleRoutesByHashAndCoversAllRows) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0, 1}), servers({0, 1, 2}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 50)).is_ok());
  ASSERT_TRUE(ex.send(1, keyed(50, 100)).is_ok());
  std::size_t total = 0;
  for (std::size_t j = 0; j < 3; ++j) {
    const auto t = ex.recv_all(j);
    ASSERT_TRUE(t.ok());
    total += t->num_rows();
    // Each consumer only sees keys that hash to it.
    for (std::int64_t k : t->column_by_name("k").ints()) {
      EXPECT_EQ(stable_hash64(k) % 3, j);
    }
  }
  EXPECT_EQ(total, 100u);
  // recv_all reads through a cursor: each consumer read one chunk per
  // producer.
  EXPECT_EQ(ex.stats().chunks_consumed, 6u);
}

TEST(ExchangeTest, SameServerPipesAreZeroCopy) {
  auto store = storage::make_instant_store();
  // Producers and consumers all on server 0 -> all pipes local.
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0, 0}), servers({0, 0}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 10)).is_ok());
  ASSERT_TRUE(ex.send(1, keyed(10, 20)).is_ok());
  (void)ex.recv_all(0);
  (void)ex.recv_all(1);
  EXPECT_GT(ex.stats().zero_copy_messages, 0u);
  EXPECT_EQ(ex.stats().remote_messages, 0u);
  EXPECT_EQ(store->stats().puts, 0u);  // nothing touched the store
}

TEST(ExchangeTest, CrossServerPipesSerialize) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({1}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 10)).is_ok());
  (void)ex.recv_all(0);
  EXPECT_EQ(ex.stats().zero_copy_messages, 0u);
  EXPECT_GT(ex.stats().remote_messages, 0u);
  EXPECT_GT(ex.stats().remote_bytes, 0u);
  EXPECT_GT(store->stats().puts, 0u);
}

TEST(ExchangeTest, MixedPlacementSplitsTraffic) {
  auto store = storage::make_instant_store();
  // Producer on server 0; consumers on 0 and 1: one local, one remote pipe.
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0, 1}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 40)).is_ok());
  (void)ex.recv_all(0);
  (void)ex.recv_all(1);
  EXPECT_EQ(ex.stats().zero_copy_messages, 1u);
  EXPECT_EQ(ex.stats().remote_messages, 1u);
}

TEST(ExchangeTest, GatherPairsProducersToConsumers) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kGather, "k", servers({0, 1, 0}), servers({0, 1, 0}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 3)).is_ok());
  ASSERT_TRUE(ex.send(1, keyed(3, 6)).is_ok());
  ASSERT_TRUE(ex.send(2, keyed(6, 9)).is_ok());
  for (std::size_t j = 0; j < 3; ++j) {
    const auto t = ex.recv_all(j);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->num_rows(), 3u);  // exactly its paired producer's rows
    EXPECT_EQ(t->column_by_name("k").int_at(0), static_cast<std::int64_t>(j * 3));
  }
}

TEST(ExchangeTest, BroadcastDeliversFullCopyToEveryone) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kBroadcast, "", servers({0}), servers({0, 1, 2}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 7)).is_ok());
  for (std::size_t j = 0; j < 3; ++j) {
    const auto t = ex.recv_all(j);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->num_rows(), 7u);
  }
}

TEST(ExchangeTest, AllGatherMergesAllProducers) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kAllGather, "", servers({0, 1}), servers({0, 1}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 4)).is_ok());
  ASSERT_TRUE(ex.send(1, keyed(4, 8)).is_ok());
  for (std::size_t j = 0; j < 2; ++j) {
    const auto t = ex.recv_all(j);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->num_rows(), 8u);  // full copy of everything
  }
}

TEST(ExchangeTest, IndexBoundsChecked) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0}), *store, "x");
  EXPECT_FALSE(ex.send(5, keyed(0, 1)).is_ok());
  EXPECT_FALSE(ex.recv_all(5).ok());
}

TEST(ExchangeTest, DuplicatePublishIsDiscardedIdempotently) {
  // A speculative duplicate of a producer task publishes the same
  // output again; the exchange must keep exactly one copy.
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({1}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 20)).is_ok());
  ASSERT_TRUE(ex.send(0, keyed(0, 20)).is_ok());  // duplicate: no-op
  const auto t = ex.recv_all(0);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 20u);  // not doubled
  EXPECT_EQ(ex.stats().duplicate_publishes, 1u);
}

TEST(ExchangeTest, RecvAllIsNonDestructive) {
  // A duplicate consumer attempt must gather exactly what the original
  // saw: receiving is a snapshot, not a drain.
  auto store = storage::make_instant_store();
  for (const auto& cons : {servers({0}), servers({1})}) {  // local and remote pipes
    Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), cons, *store, "x" + std::to_string(cons[0]));
    ASSERT_TRUE(ex.send(0, keyed(0, 15)).is_ok());
    const auto first = ex.recv_all(0);
    const auto second = ex.recv_all(0);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*first, *second);
    EXPECT_EQ(first->num_rows(), 15u);
  }
}

TEST(ExchangeTest, ResetProducerAllowsRepublish) {
  // Server-loss recovery: forget the producer's publish, re-run it, and
  // consumers still see a single consistent copy.
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 10)).is_ok());
  ex.reset_producer(0);
  ASSERT_TRUE(ex.send(0, keyed(0, 10)).is_ok());  // re-publish, not a duplicate
  const auto t = ex.recv_all(0);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 10u);
  EXPECT_EQ(ex.stats().producers_reset, 1u);
  EXPECT_EQ(ex.stats().duplicate_publishes, 0u);
}

/// Passes every call through to `inner`; tests override what they
/// want to break.
class ForwardingStore : public storage::ObjectStore {
 public:
  explicit ForwardingStore(storage::ObjectStore& inner) : inner_(&inner) {}

  const char* kind() const override { return inner_->kind(); }
  const storage::StorageModel& model() const override { return inner_->model(); }
  Status put(const std::string& key, std::string_view value) override {
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

 protected:
  storage::ObjectStore* inner_;
};

/// Fails the first `fail_times` puts whose key contains `substr`;
/// everything else passes through. Lets a test kill one pipe of a
/// publish row while earlier pipes have already succeeded.
class FailingPutStore final : public ForwardingStore {
 public:
  FailingPutStore(storage::ObjectStore& inner, std::string substr, int fail_times)
      : ForwardingStore(inner), substr_(std::move(substr)), remaining_(fail_times) {}

  Status put(const std::string& key, std::string_view value) override {
    if (remaining_ > 0 && key.find(substr_) != std::string::npos) {
      --remaining_;
      return Status::unavailable("injected put failure: " + key);
    }
    return inner_->put(key, value);
  }

 private:
  const std::string substr_;
  int remaining_;
};

TEST(ExchangeTest, PartialPublishFailureRollsBackRemoteChannels) {
  // The put to the second remote channel fails after the first channel's
  // put already succeeded. The failed publish must roll the whole row
  // back so the retry restarts from seq 0 and overwrites the same keys —
  // otherwise the first channel would carry the partition twice.
  auto inner = storage::make_instant_store();
  FailingPutStore store(*inner, "0-1", 1);
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({1, 2}), store, "x");
  ASSERT_FALSE(ex.send(0, keyed(0, 40)).is_ok());  // partial publish fails
  ASSERT_TRUE(ex.send(0, keyed(0, 40)).is_ok());   // retry takes over cleanly
  std::size_t total = 0;
  for (std::size_t j = 0; j < 2; ++j) {
    const auto t = ex.recv_all(j);
    ASSERT_TRUE(t.ok());
    total += t->num_rows();
  }
  EXPECT_EQ(total, 40u);  // every row exactly once
  // Routing telemetry counts the logical data moved, not the failed try.
  EXPECT_EQ(ex.stats().remote_messages, 2u);
}

TEST(ExchangeTest, PartialPublishFailureClearsLocalBuffers) {
  // Mixed row: the zero-copy pipe holds its part of every chunk accepted
  // before the remote pipe's put failed. The rollback must drop those
  // local chunks too, or the retry would append a second copy for the
  // co-located consumer. The put fails on the only chunk of a
  // whole-table publish, and on the second chunk of a two-chunk stream.
  struct Case {
    std::size_t chunk_rows;
    const char* failing_key;
    std::size_t chunks;
  };
  for (const Case& c : {Case{30, "x/0-1/0", 1}, Case{16, "x/0-1/1", 2}}) {
    SCOPED_TRACE(c.failing_key);
    auto clean_store = storage::make_instant_store();
    Exchange clean(ExchangeKind::kShuffle, "k", servers({0}), servers({0, 1}), *clean_store,
                   "x");
    ASSERT_TRUE(clean.send_chunked(0, keyed(0, 30), c.chunk_rows).is_ok());

    auto inner = storage::make_instant_store();
    FailingPutStore store(*inner, c.failing_key, 1);
    Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0, 1}), store, "x");
    ASSERT_FALSE(ex.send_chunked(0, keyed(0, 30), c.chunk_rows).is_ok());
    ASSERT_TRUE(ex.send_chunked(0, keyed(0, 30), c.chunk_rows).is_ok());
    std::size_t total = 0;
    for (std::size_t j = 0; j < 2; ++j) {
      const auto t = ex.recv_all(j);
      const auto want = clean.recv_all(j);
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(*t, *want) << "consumer " << j;
      total += t->num_rows();
    }
    EXPECT_EQ(total, 30u);
    EXPECT_EQ(ex.stats().zero_copy_messages, c.chunks);
    EXPECT_EQ(ex.stats().remote_messages, c.chunks);
  }
}

TEST(ExchangeTest, ProducerHasLocalChannelTracksPlacement) {
  auto store = storage::make_instant_store();
  // Producer 0 is co-located with consumer 0; producer 1 is alone on 2.
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0, 2}), servers({0, 1}), *store, "x");
  EXPECT_TRUE(ex.producer_has_local_channel(0));
  EXPECT_FALSE(ex.producer_has_local_channel(1));
}

// Both cross-server reads — the materialized recv_all and the streaming
// cursor — must surface a payload that vanished from the store or no
// longer decodes as an error, never as an empty table or an early end
// of stream.
void expect_remote_reads_fail(const std::function<void(storage::ObjectStore&)>& damage) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({1}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 20)).is_ok());
  ASSERT_TRUE(store->contains("x/0-0/0"));
  damage(*store);

  const auto all = ex.recv_all(0);
  EXPECT_FALSE(all.ok());

  ChunkCursor cursor = ex.open_cursor(0);
  const auto chunk = cursor.next();
  EXPECT_FALSE(chunk.ok());
}

TEST(ExchangeTest, LostRemotePayloadIsAnErrorNotEof) {
  expect_remote_reads_fail(
      [](storage::ObjectStore& s) { ASSERT_TRUE(s.remove("x/0-0/0").is_ok()); });
}

TEST(ExchangeTest, CorruptRemotePayloadIsAnErrorNotEof) {
  expect_remote_reads_fail([](storage::ObjectStore& s) {
    ASSERT_TRUE(s.put("x/0-0/0", "not a serialized table").is_ok());
  });
}

TEST(ExchangeTest, CancelUnblocksConsumersWithUnavailable) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0}), *store, "x");
  ex.cancel();  // producer never published
  const auto t = ex.recv_all(0);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kUnavailable);
}

// ---- cancel() is terminal on local and remote pipes alike.

/// Placements of a 1x1 edge: the consumer on the producer's server
/// (local pipe) and on another one (remote pipe).
const std::vector<ServerId> kConsumerServers = {0, 1};

TEST(ExchangeCancelTest, PublishAfterCancelIsUnavailableAndInvisible) {
  for (const ServerId cons : kConsumerServers) {
    SCOPED_TRACE(cons == 0 ? "local pipe" : "remote pipe");
    auto store = storage::make_instant_store();
    Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({cons}), *store, "x");
    ex.cancel();
    const Status st = ex.send(0, keyed(0, 10));
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    ChunkCursor cur = ex.open_cursor(0);
    const auto chunk = cur.next();
    ASSERT_FALSE(chunk.ok());
    EXPECT_EQ(chunk.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(ex.stats().chunks_published, 0u);
    EXPECT_FALSE(store->contains("x/0-0/0"));
  }
}

TEST(ExchangeCancelTest, ResetAfterCancelDoesNotUnblockCursor) {
  for (const ServerId cons : kConsumerServers) {
    SCOPED_TRACE(cons == 0 ? "local pipe" : "remote pipe");
    auto store = storage::make_instant_store();
    Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({cons}), *store, "x");
    // A partial stream: chunk 0 is out, then the producer dies.
    int ticks = 0;
    auto die_at_second_tick = [&]() -> Status {
      return ++ticks >= 2 ? Status::internal("producer crashed") : Status::ok();
    };
    EXPECT_FALSE(ex.send_chunked(0, keyed(0, 32), 16, die_at_second_tick).is_ok());

    Status blocked_read;
    std::promise<void> first_read;
    std::thread consumer([&] {
      ChunkCursor cur = ex.open_cursor(0);
      const auto first = cur.next();
      EXPECT_TRUE(first.ok() && first->has_value());
      first_read.set_value();
      const auto second = cur.next();  // blocks: chunk 1 never came
      blocked_read = second.status();
    });
    first_read.get_future().wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ex.cancel();
    ex.reset_producer(0);  // must not revive the cancelled edge
    consumer.join();
    EXPECT_EQ(blocked_read.code(), StatusCode::kUnavailable);

    ChunkCursor fresh = ex.open_cursor(0);
    const auto chunk = fresh.next();
    ASSERT_FALSE(chunk.ok());
    EXPECT_EQ(chunk.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(ex.send_chunked(0, keyed(0, 32), 16).code(), StatusCode::kUnavailable);
  }
}

/// Blocks every put_payload until release() — lets a test land a
/// cancel while a remote put is in flight.
class LatchedPutStore final : public ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;

  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  Status put_payload(const std::string& key, storage::Payload value) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return inner_->put_payload(key, std::move(value));
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(ExchangeCancelTest, CancelDuringRemotePutFailsThePublish) {
  // A mixed row: consumer 0 is local, consumer 1 remote. The cancel
  // lands while the remote put is in flight; the publish must fail and
  // neither the local part nor the chunk may become visible.
  auto inner = storage::make_instant_store();
  LatchedPutStore store(*inner);
  Exchange ex(ExchangeKind::kShuffle, "k", servers({0}), servers({0, 1}), store, "x");
  Status published;
  std::thread producer([&] { published = ex.send(0, keyed(0, 40)); });
  store.wait_entered();
  ex.cancel();
  store.release();
  producer.join();
  EXPECT_EQ(published.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ex.stats().chunks_published, 0u);
  EXPECT_EQ(ex.stats().zero_copy_messages, 0u);
  EXPECT_EQ(ex.stats().remote_messages, 0u);
  for (std::size_t j = 0; j < 2; ++j) {
    const auto t = ex.recv_all(j);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::kUnavailable);
  }
}

// ---- recv_all's gather: a lone part is borrowed, several parts are
// copied once into exact-size columns.

TEST(ExchangeGatherTest, LoneLocalPartIsBorrowedWithoutCopy) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kGather, "", servers({0}), servers({0}), *store, "x");
  Table t = keyed(0, 1000);
  const std::int64_t* const sent = t.column(0).int_span().data();
  ASSERT_TRUE(ex.send(0, std::move(t)).is_ok());
  const auto got = ex.recv_all(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, keyed(0, 1000));
  EXPECT_TRUE(got->column(0).is_borrowed());
  EXPECT_EQ(got->column(0).int_span().data(), sent) << "a lone part must not be copied";
}

TEST(ExchangeGatherTest, LoneRemotePartViewsTheStoredPayload) {
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kGather, "", servers({0}), servers({1}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 1000)).is_ok());
  const auto got = ex.recv_all(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, keyed(0, 1000));
  const auto payload = store->get_payload("x/0-0/0");
  ASSERT_TRUE(payload.ok());
  const auto* data = reinterpret_cast<const char*>(got->column(1).int_span().data());
  EXPECT_GE(data, (*payload)->data());
  EXPECT_LT(data, (*payload)->data() + (*payload)->size())
      << "the received column must view the store's payload, not a copy of it";
}

/// Producer i's part: an owned int64, a borrowed double and a string
/// column, with values distinct per producer.
Table mixed_part(int i, std::size_t rows) {
  std::vector<std::int64_t> k;
  std::vector<double> d;
  std::vector<std::string> s;
  for (std::size_t r = 0; r < rows; ++r) {
    k.push_back(static_cast<std::int64_t>(i * 1000 + r));
    d.push_back(static_cast<double>(r) * 0.5 + i);
    s.push_back("p" + std::to_string(i) + "r" + std::to_string(r));
  }
  auto t = Table::make({{"k", DataType::kInt64}, {"d", DataType::kDouble},
                        {"s", DataType::kString}},
                       {Column(std::move(k)), Column(std::move(d)).borrowed_copy(),
                        Column(std::move(s))});
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(ExchangeGatherTest, MultiPartGatherEqualsTheAppendLoop) {
  // Three producers (two local, one remote) all feed consumer 0.
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kGather, "", servers({0, 1, 0}), servers({0}), *store, "x");
  const std::size_t rows[] = {7, 0, 130};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ex.send(i, mixed_part(i, rows[i])).is_ok());
  const auto got = ex.recv_all(0);
  ASSERT_TRUE(got.ok()) << got.status().to_string();

  // The old formulation: append every row of every part, in order.
  Table want(mixed_part(0, 0).schema());
  for (int i = 0; i < 3; ++i) {
    const Table part = mixed_part(i, rows[i]);
    for (std::size_t r = 0; r < part.num_rows(); ++r) append_row_from(want, part, r);
  }
  EXPECT_EQ(*got, want);
  for (std::size_t c = 0; c < got->num_columns(); ++c) {
    EXPECT_FALSE(got->column(c).is_borrowed()) << "column " << c;
  }
  EXPECT_EQ(ex.stats().remote_messages, 1u);
}

TEST(ExchangeGatherTest, ReceivedTableOutlivesItsStoreKey) {
  // A remote receive views the store's payload; overwriting, removing
  // or clearing the key must not invalidate tables already received.
  auto store = storage::make_instant_store();
  Exchange ex(ExchangeKind::kGather, "", servers({0}), servers({1}), *store, "x");
  ASSERT_TRUE(ex.send(0, keyed(0, 500)).is_ok());
  const auto first = ex.recv_all(0);
  ASSERT_TRUE(store->put("x/0-0/0", std::string(4096, 'z')).is_ok());
  const auto second = ex.recv_all(0);  // reads the overwritten key
  EXPECT_FALSE(second.ok());
  ASSERT_TRUE(store->remove("x/0-0/0").is_ok());
  store->clear();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, keyed(0, 500));
  EXPECT_TRUE(first->column(0).is_borrowed());
}

}  // namespace
}  // namespace ditto::exec
