#include <gtest/gtest.h>

#include "exec/operators.h"
#include "support/tables.h"

namespace ditto::exec {
namespace {

TEST(FirstIntAggTest, KeepsFirstSeenValuePerGroup) {
  const Table t = table_of_ints(
      {{"k", {2, 1, 2, 1}}, {"fk", {20, 10, 21, 11}}});
  const auto out = group_by(t, "k", {{AggKind::kFirstInt, "fk", "fk"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  // Keys sorted: 1 then 2; first fk seen for key 1 is 10, for key 2 is 20.
  EXPECT_EQ(out->column_by_name("fk").type(), DataType::kInt64);
  EXPECT_EQ(out->column_by_name("fk").int_at(0), 10);
  EXPECT_EQ(out->column_by_name("fk").int_at(1), 20);
}

TEST(FirstIntAggTest, RejectsNonIntColumn) {
  auto t = Table::make({{"k", DataType::kInt64}, {"v", DataType::kDouble}},
                       {Column(std::vector<std::int64_t>{1}),
                        Column(std::vector<double>{1.0})});
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(group_by(*t, "k", {{AggKind::kFirstInt, "v", "bad"}}).ok());
}

TEST(FirstIntAggTest, ComposesWithOtherAggregates) {
  const Table t = table_of_ints({{"k", {1, 1, 2}}, {"fk", {7, 8, 9}}, {"v", {1, 3, 5}}});
  const auto out = group_by(
      t, "k", {{AggKind::kFirstInt, "fk", "fk"}, {AggKind::kSum, "v", "s"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->column_by_name("fk").int_at(0), 7);
  EXPECT_DOUBLE_EQ(out->column_by_name("s").double_at(0), 4.0);
  EXPECT_EQ(out->column_by_name("fk").int_at(1), 9);
}

}  // namespace
}  // namespace ditto::exec
