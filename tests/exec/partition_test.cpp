#include "exec/partition.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/thread_pool.h"
#include "support/tables.h"

namespace ditto::exec {
namespace {

Table keyed(std::size_t rows) {
  std::vector<std::int64_t> k(rows), v(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    k[i] = static_cast<std::int64_t>(i % 37);
    v[i] = static_cast<std::int64_t>(i);
  }
  return table_of_ints({{"k", k}, {"v", v}});
}

TEST(HashPartitionTest, CoversAllRowsExactlyOnce) {
  const Table t = keyed(1000);
  const auto parts = hash_partition(t, "k", 7);
  ASSERT_TRUE(parts.ok());
  std::size_t total = 0;
  for (const Table& p : *parts) total += p.num_rows();
  EXPECT_EQ(total, 1000u);
}

TEST(HashPartitionTest, SameKeySamePartition) {
  const Table t = keyed(500);
  const auto parts = hash_partition(t, "k", 5);
  ASSERT_TRUE(parts.ok());
  // Every key must appear in exactly one partition.
  std::vector<int> owner(37, -1);
  for (std::size_t p = 0; p < parts->size(); ++p) {
    for (std::int64_t key : (*parts)[p].column_by_name("k").ints()) {
      if (owner[key] < 0) {
        owner[key] = static_cast<int>(p);
      } else {
        EXPECT_EQ(owner[key], static_cast<int>(p)) << "key " << key;
      }
    }
  }
}

TEST(HashPartitionTest, CoPartitioningAgreesAcrossTables) {
  // Two tables hashed on the same key domain route keys identically —
  // the property hash joins over shuffles rely on.
  const Table a = keyed(200);
  const Table b = keyed(777);
  const auto pa = hash_partition(a, "k", 4);
  const auto pb = hash_partition(b, "k", 4);
  ASSERT_TRUE(pa.ok() && pb.ok());
  for (std::int64_t key = 0; key < 37; ++key) {
    const std::size_t expected = stable_hash64(key) % 4;
    for (std::size_t p = 0; p < 4; ++p) {
      for (const Table* part : {&(*pa)[p], &(*pb)[p]}) {
        for (std::int64_t k : part->column_by_name("k").ints()) {
          if (k == key) {
            EXPECT_EQ(p, expected);
          }
        }
      }
    }
  }
}

TEST(HashPartitionTest, RejectsBadArguments) {
  const Table t = keyed(10);
  EXPECT_FALSE(hash_partition(t, "ghost", 2).ok());
  EXPECT_FALSE(hash_partition(t, "k", 0).ok());
}

Table mixed(std::size_t rows) {
  std::vector<std::int64_t> k(rows);
  std::vector<double> d(rows);
  std::vector<std::string> s(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    k[i] = static_cast<std::int64_t>(i % 101);
    d[i] = static_cast<double>(i) * 0.5;
    s[i] = "row-" + std::to_string(i);
  }
  auto t = Table::make(
      {{"k", DataType::kInt64}, {"d", DataType::kDouble}, {"s", DataType::kString}},
      {Column(std::move(k)), Column(std::move(d)), Column(std::move(s))});
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// The pre-scatter formulation (per-row push_back into index vectors,
/// then take) kept as the correctness oracle.
std::vector<Table> reference_hash_partition(const Table& in, const std::string& key,
                                            std::size_t n) {
  const auto keys = in.column_by_name(key).int_span();
  std::vector<std::vector<std::size_t>> buckets(n);
  for (std::size_t r = 0; r < keys.size(); ++r) {
    buckets[stable_hash64(keys[r]) % n].push_back(r);
  }
  std::vector<Table> out;
  out.reserve(n);
  for (const auto& b : buckets) out.push_back(in.take(b));
  return out;
}

TEST(HashPartitionTest, MatchesReferenceOnMixedTypes) {
  const Table t = mixed(3000);
  const auto got = hash_partition(t, "k", 7);
  ASSERT_TRUE(got.ok());
  const auto want = reference_hash_partition(t, "k", 7);
  ASSERT_EQ(got->size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ((*got)[p], want[p]) << "partition " << p;
  }
}

TEST(HashPartitionTest, ParallelMatchesSerial) {
  // Enough rows to span several scatter chunks.
  const Table t = mixed(200'000);
  ThreadPool pool(4);
  const auto serial = hash_partition(t, "k", 9);
  const auto parallel = hash_partition(t, "k", 9, &pool);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  for (std::size_t p = 0; p < serial->size(); ++p) {
    EXPECT_EQ((*serial)[p], (*parallel)[p]) << "partition " << p;
  }
}

TEST(StableHashTest, DeterministicAndSpread) {
  EXPECT_EQ(stable_hash64(42), stable_hash64(42));
  // Buckets should be roughly uniform over sequential keys.
  std::vector<int> counts(8, 0);
  for (std::int64_t k = 0; k < 8000; ++k) ++counts[stable_hash64(k) % 8];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

}  // namespace
}  // namespace ditto::exec
