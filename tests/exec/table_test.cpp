#include "exec/table.h"

#include <gtest/gtest.h>

#include "support/tables.h"

namespace ditto::exec {
namespace {

Table sample() {
  auto t = Table::make(
      {{"id", DataType::kInt64}, {"score", DataType::kDouble}, {"name", DataType::kString}},
      {Column(std::vector<std::int64_t>{1, 2, 3}),
       Column(std::vector<double>{1.5, 2.5, 3.5}),
       Column(std::vector<std::string>{"a", "b", "c"})});
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(ColumnTest, TypesAndSizes) {
  const Column ints(std::vector<std::int64_t>{1, 2});
  const Column doubles(std::vector<double>{1.0});
  const Column strings(std::vector<std::string>{"x", "y", "z"});
  EXPECT_EQ(ints.type(), DataType::kInt64);
  EXPECT_EQ(doubles.type(), DataType::kDouble);
  EXPECT_EQ(strings.type(), DataType::kString);
  EXPECT_EQ(ints.size(), 2u);
  EXPECT_EQ(strings.size(), 3u);
}

TEST(ColumnTest, TakeSelectsRows) {
  const Column c(std::vector<std::int64_t>{10, 20, 30, 40});
  const Column t = c.take({3, 1});
  EXPECT_EQ(t.ints(), (std::vector<std::int64_t>{40, 20}));
}

TEST(ColumnTest, ByteSize) {
  EXPECT_EQ(Column(std::vector<std::int64_t>{1, 2}).byte_size(), 16u);
  EXPECT_EQ(Column(std::vector<double>{1.0}).byte_size(), 8u);
  EXPECT_GT(Column(std::vector<std::string>{"abc"}).byte_size(), 3u);
}

TEST(TableTest, MakeValidatesShape) {
  EXPECT_FALSE(Table::make({{"a", DataType::kInt64}}, {}).ok());
  EXPECT_FALSE(Table::make({{"a", DataType::kInt64}},
                           {Column(std::vector<double>{1.0})})
                   .ok());
  EXPECT_FALSE(Table::make({{"a", DataType::kInt64}, {"b", DataType::kInt64}},
                           {Column(std::vector<std::int64_t>{1}),
                            Column(std::vector<std::int64_t>{1, 2})})
                   .ok());
}

TEST(TableTest, ColumnLookup) {
  const Table t = sample();
  EXPECT_EQ(t.column_index("score"), 1);
  EXPECT_EQ(t.column_index("missing"), -1);
  EXPECT_EQ(t.column_by_name("id").int_at(2), 3);
}

TEST(TableTest, TakePreservesSchema) {
  const Table t = sample();
  const Table sel = t.take({2, 0});
  EXPECT_EQ(sel.schema(), t.schema());
  EXPECT_EQ(sel.num_rows(), 2u);
  EXPECT_EQ(sel.column_by_name("name").string_at(0), "c");
  EXPECT_DOUBLE_EQ(sel.column_by_name("score").double_at(1), 1.5);
}

TEST(TableTest, ConcatAppendsRows) {
  const Table a = sample();
  const Table b = sample();
  const auto out = concat_tables(std::vector<const Table*>{&a, &b});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 6u);
  EXPECT_EQ(out->column_by_name("id").int_at(3), 1);
  EXPECT_EQ(out->column_by_name("name").string_at(5), "c");
}

TEST(TableTest, ConcatRejectsSchemaMismatch) {
  const Table a = sample();
  const Table b = table_of_ints({{"x", {1}}});
  const auto out = concat_tables(std::vector<const Table*>{&a, &b});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().message(), "concat schema mismatch");
}

TEST(TableTest, AppendRowFrom) {
  const Table src = sample();
  Table dst(src.schema());
  append_row_from(dst, src, 1);
  EXPECT_EQ(dst.num_rows(), 1u);
  EXPECT_EQ(dst.column_by_name("name").string_at(0), "b");
}

TEST(TableTest, TableOfIntsHelper) {
  const Table t = table_of_ints({{"a", {1, 2}}, {"b", {3, 4}}});
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column_by_name("b").int_at(1), 4);
}

TEST(TableTest, EmptyTableBasics) {
  const Table t(Schema{{"a", DataType::kInt64}});
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_TRUE(t.validate().is_ok());
}

}  // namespace
}  // namespace ditto::exec
