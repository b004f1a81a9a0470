// Borrowed-column semantics: zero-copy deserialize views the wire
// buffer in place, holds a refcount on it, and converts to owned
// storage exactly when mutation demands it.
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/serde.h"

namespace ditto::exec {
namespace {

Table fixed_width_sample() {
  auto t = Table::make({{"id", DataType::kInt64}, {"v", DataType::kDouble}},
                       {Column(std::vector<std::int64_t>{1, 2, 3, 4}),
                        Column(std::vector<double>{0.5, 1.5, 2.5, 3.5})});
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(ZeroCopyTest, BufferDeserializeBorrowsFixedWidthColumns) {
  const storage::Payload buf = serialize_table(fixed_width_sample());
  const auto t = deserialize_table(buf);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->column(0).is_borrowed());
  EXPECT_TRUE(t->column(1).is_borrowed());
  // The borrowed values point INTO the wire payload.
  const auto* p = reinterpret_cast<const char*>(t->column(0).int_span().data());
  EXPECT_GE(p, buf->data());
  EXPECT_LT(p, buf->data() + buf->size());
}

TEST(ZeroCopyTest, StringColumnsAreAlwaysOwned) {
  auto t = Table::make({{"s", DataType::kString}},
                       {Column(std::vector<std::string>{"a", "bb"})});
  ASSERT_TRUE(t.ok());
  const auto back = deserialize_table(serialize_table(t.value()));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->column(0).is_borrowed());
}

TEST(ZeroCopyTest, BorrowKeepsBufferAlive) {
  storage::Payload owner = serialize_table(fixed_width_sample());
  auto t = deserialize_table(owner);
  ASSERT_TRUE(t.ok());
  const long before = owner.use_count();
  EXPECT_GT(before, 1) << "table should hold refcounts on the payload";
  owner.reset();  // table refcounts keep the bytes valid
  EXPECT_EQ(t->column(0).int_span()[3], 4);
  EXPECT_EQ(t->column(1).double_span()[0], 0.5);
}

TEST(ZeroCopyTest, LazyMaterializationAndEnsureOwned) {
  const storage::Payload buf = serialize_table(fixed_width_sample());
  auto t = deserialize_table(buf);
  ASSERT_TRUE(t.ok());
  Table table = std::move(t).value();

  // Const vector access materializes a copy but the column stays in
  // borrowed mode (copies of it still share the view).
  const Table& ct = table;
  EXPECT_EQ(ct.column(0).ints(), (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_TRUE(ct.column(0).is_borrowed());

  // Mutation converts to owned storage.
  table.column(0).ints().push_back(5);
  EXPECT_FALSE(table.column(0).is_borrowed());
  EXPECT_EQ(table.column(0).int_span()[4], 5);

  table.ensure_owned();
  EXPECT_FALSE(table.column(1).is_borrowed());
}

TEST(ZeroCopyTest, ConcurrentConstReadsAreSafe) {
  const storage::Payload buf = serialize_table(fixed_width_sample());
  const auto t = deserialize_table(buf);
  ASSERT_TRUE(t.ok());
  std::vector<std::thread> threads;
  std::vector<std::int64_t> sums(8, 0);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&table = *t, &out = sums[i]] {
      for (std::int64_t v : table.column(0).ints()) out += v;  // lazy materialize race
    });
  }
  for (auto& th : threads) th.join();
  for (std::int64_t s : sums) EXPECT_EQ(s, 10);
}

TEST(ZeroCopyTest, OwnedAndBorrowedCompareEqual) {
  const Table owned = fixed_width_sample();
  const auto borrowed = deserialize_table(serialize_table(owned));
  ASSERT_TRUE(borrowed.ok());
  ASSERT_TRUE(borrowed->column(0).is_borrowed());
  EXPECT_EQ(*borrowed, owned);
  // Serialization is value-based too: identical bytes either way.
  EXPECT_EQ(*serialize_table(*borrowed), *serialize_table(owned));
}

TEST(ZeroCopyTest, SliceOfBorrowedStaysZeroCopy) {
  const storage::Payload buf = serialize_table(fixed_width_sample());
  const auto t = deserialize_table(buf);
  ASSERT_TRUE(t.ok());
  const Table mid = t->slice(1, 2);
  EXPECT_TRUE(mid.column(0).is_borrowed());
  EXPECT_EQ(mid.column(0).int_span()[0], 2);
  EXPECT_EQ(mid.column(1).double_span()[1], 2.5);
}

TEST(ZeroCopyTest, ConcatMaterializesDestinationOnly) {
  const storage::Payload buf = serialize_table(fixed_width_sample());
  const auto a = deserialize_table(buf);
  const auto b = deserialize_table(buf);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto dst = concat_tables(std::vector<const Table*>{&*a, &*b});
  ASSERT_TRUE(dst.ok());
  EXPECT_EQ(dst->num_rows(), 8u);
  EXPECT_FALSE(dst->column(0).is_borrowed());
  EXPECT_TRUE(a->column(0).is_borrowed()) << "concat sources must stay borrowed";
  EXPECT_TRUE(b->column(0).is_borrowed()) << "concat sources must stay borrowed";
  EXPECT_EQ(dst->column(0).int_span()[7], 4);
}

}  // namespace
}  // namespace ditto::exec
