#include "exec/operators.h"

#include <gtest/gtest.h>

#include "support/tables.h"

namespace ditto::exec {
namespace {

Table orders() {
  // id, customer, amount
  return table_of_ints({{"id", {1, 2, 3, 4, 5, 6}},
                        {"customer", {10, 20, 10, 30, 20, 10}},
                        {"amount", {100, 200, 50, 300, 150, 25}}});
}

std::size_t rows_where(const std::string& col, CmpOp op, std::int64_t v) {
  const auto out = filter_cols(orders(), {pred_int(col, op, v)});
  EXPECT_TRUE(out.ok());
  return out.ok() ? out->num_rows() : 0;
}

TEST(FilterIntTest, AllOperators) {
  EXPECT_EQ(rows_where("customer", CmpOp::kEq, 10), 3u);
  EXPECT_EQ(rows_where("customer", CmpOp::kNe, 10), 3u);
  EXPECT_EQ(rows_where("amount", CmpOp::kLt, 100), 2u);
  EXPECT_EQ(rows_where("amount", CmpOp::kLe, 100), 3u);
  EXPECT_EQ(rows_where("amount", CmpOp::kGt, 200), 1u);
  EXPECT_EQ(rows_where("amount", CmpOp::kGe, 200), 2u);
}

TEST(FilterIntTest, ErrorsOnBadColumn) {
  EXPECT_FALSE(filter_cols(orders(), {pred_int("ghost", CmpOp::kEq, 1)}).ok());
}

TEST(ProjectTest, SelectsAndReorders) {
  const auto out = project(orders(), {"amount", "id"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_columns(), 2u);
  EXPECT_EQ(out->schema()[0].name, "amount");
  EXPECT_EQ(out->column(1).int_at(0), 1);
}

TEST(ProjectTest, MissingColumnFails) {
  EXPECT_FALSE(project(orders(), {"nope"}).ok());
}

TEST(HashJoinTest, InnerJoinMatchesPairs) {
  const Table left = table_of_ints({{"k", {1, 2, 3}}, {"lv", {10, 20, 30}}});
  const Table right = table_of_ints({{"k", {2, 3, 3, 4}}, {"rv", {200, 300, 301, 400}}});
  const auto out = hash_join(left, "k", right, "k");
  ASSERT_TRUE(out.ok());
  // Matches: 2x1, 3x2 -> 3 rows.
  EXPECT_EQ(out->num_rows(), 3u);
  EXPECT_GE(out->column_index("lv"), 0);
  EXPECT_GE(out->column_index("rv"), 0);
  // Right key column dropped.
  EXPECT_EQ(out->num_columns(), 3u);
}

TEST(HashJoinTest, NameClashGetsPrefixed) {
  const Table left = table_of_ints({{"k", {1}}, {"v", {10}}});
  const Table right = table_of_ints({{"k", {1}}, {"v", {99}}});
  const auto out = hash_join(left, "k", right, "k");
  ASSERT_TRUE(out.ok());
  EXPECT_GE(out->column_index("r_v"), 0);
}

TEST(HashJoinTest, SemiJoin) {
  const Table left = table_of_ints({{"k", {1, 2, 3}}, {"v", {1, 2, 3}}});
  const Table right = table_of_ints({{"k", {2, 2, 9}}});
  const auto out = hash_join(left, "k", right, "k", JoinKind::kLeftSemi);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->column_by_name("k").int_at(0), 2);
  // Semi join never duplicates left rows.
  EXPECT_EQ(out->num_columns(), left.num_columns());
}

TEST(HashJoinTest, AntiJoin) {
  const Table left = table_of_ints({{"k", {1, 2, 3}}, {"v", {1, 2, 3}}});
  const Table right = table_of_ints({{"k", {2}}});
  const auto out = hash_join(left, "k", right, "k", JoinKind::kLeftAnti);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
}

TEST(HashJoinTest, EmptySidesWork) {
  const Table left = table_of_ints({{"k", {}}});
  const Table right = table_of_ints({{"k", {1}}});
  EXPECT_EQ(hash_join(left, "k", right, "k")->num_rows(), 0u);
  EXPECT_EQ(hash_join(right, "k", left, "k")->num_rows(), 0u);
  EXPECT_EQ(hash_join(right, "k", left, "k", JoinKind::kLeftAnti)->num_rows(), 1u);
}

TEST(GroupByTest, SumCountMinMaxAvg) {
  const auto out = group_by(orders(), "customer",
                            {{AggKind::kSum, "amount", "total"},
                             {AggKind::kCount, "", "n"},
                             {AggKind::kMin, "amount", "lo"},
                             {AggKind::kMax, "amount", "hi"},
                             {AggKind::kAvg, "amount", "avg"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);  // customers 10, 20, 30 sorted
  EXPECT_EQ(out->column_by_name("customer").int_at(0), 10);
  EXPECT_DOUBLE_EQ(out->column_by_name("total").double_at(0), 175.0);
  EXPECT_EQ(out->column_by_name("n").int_at(0), 3);
  EXPECT_DOUBLE_EQ(out->column_by_name("lo").double_at(0), 25.0);
  EXPECT_DOUBLE_EQ(out->column_by_name("hi").double_at(0), 100.0);
  EXPECT_NEAR(out->column_by_name("avg").double_at(0), 175.0 / 3, 1e-12);
}

TEST(GroupByTest, DoubleColumnAggregation) {
  auto t = Table::make({{"k", DataType::kInt64}, {"v", DataType::kDouble}},
                       {Column(std::vector<std::int64_t>{1, 1, 2}),
                        Column(std::vector<double>{0.5, 1.5, 4.0})});
  ASSERT_TRUE(t.ok());
  const auto out = group_by(*t, "k", {{AggKind::kSum, "v", "s"}});
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->column_by_name("s").double_at(0), 2.0);
  EXPECT_DOUBLE_EQ(out->column_by_name("s").double_at(1), 4.0);
}

TEST(GroupByTest, StringAggregateRejected) {
  auto t = Table::make({{"k", DataType::kInt64}, {"s", DataType::kString}},
                       {Column(std::vector<std::int64_t>{1}),
                        Column(std::vector<std::string>{"x"})});
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(group_by(*t, "k", {{AggKind::kSum, "s", "bad"}}).ok());
}

TEST(SortTest, AscendingAndDescending) {
  const Table t = table_of_ints({{"k", {3, 1, 2}}, {"v", {30, 10, 20}}});
  const auto asc = sort_by_int(t, "k");
  ASSERT_TRUE(asc.ok());
  EXPECT_EQ(asc->column_by_name("v").ints(), (std::vector<std::int64_t>{10, 20, 30}));
  const auto desc = sort_by_int(t, "k", false);
  EXPECT_EQ(desc->column_by_name("v").ints(), (std::vector<std::int64_t>{30, 20, 10}));
}

TEST(SortTest, StableOnTies) {
  const Table t = table_of_ints({{"k", {1, 1, 1}}, {"v", {7, 8, 9}}});
  const auto out = sort_by_int(t, "k");
  EXPECT_EQ(out->column_by_name("v").ints(), (std::vector<std::int64_t>{7, 8, 9}));
}

}  // namespace
}  // namespace ditto::exec
