#include "exec/serde.h"

#include <gtest/gtest.h>

namespace ditto::exec {
namespace {

storage::Payload payload_of(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

Table sample() {
  auto t = Table::make(
      {{"id", DataType::kInt64}, {"v", DataType::kDouble}, {"s", DataType::kString}},
      {Column(std::vector<std::int64_t>{-5, 0, 9007199254740993LL}),
       Column(std::vector<double>{0.0, -1.25, 3.14159}),
       Column(std::vector<std::string>{"", "hello", std::string(1000, 'x')})});
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(SerdeTest, RoundTripPreservesEverything) {
  const Table t = sample();
  const auto back = deserialize_table(serialize_table(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(SerdeTest, EmptyTableRoundTrips) {
  const Table t(Schema{{"a", DataType::kInt64}, {"b", DataType::kString}});
  const auto back = deserialize_table(serialize_table(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->schema(), t.schema());
}

TEST(SerdeTest, RejectsGarbage) {
  EXPECT_FALSE(deserialize_table(payload_of("nonsense")).ok());
  EXPECT_FALSE(deserialize_table(payload_of("")).ok());
}

TEST(SerdeTest, RejectsNullPayload) {
  const Result<Table> r = deserialize_table(nullptr);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerdeTest, RejectsTruncation) {
  const std::string full = *serialize_table(sample());
  for (std::size_t cut : {8u, 24u, 40u}) {
    EXPECT_FALSE(deserialize_table(payload_of(full.substr(0, full.size() - cut))).ok());
  }
}

TEST(SerdeTest, RejectsTrailingBytes) {
  std::string padded = *serialize_table(sample());
  padded += "extra";
  EXPECT_FALSE(deserialize_table(payload_of(padded)).ok());
}

TEST(SerdeTest, RejectsBadMagic) {
  std::string bytes = *serialize_table(sample());
  bytes[0] ^= 0xff;
  EXPECT_FALSE(deserialize_table(payload_of(bytes)).ok());
}

TEST(SerdeTest, SerializedSizeTracksPayload) {
  const Table small = table_of_ints({{"a", {1}}});
  const Table big = table_of_ints(
      {{"a", std::vector<std::int64_t>(10000, 7)}});
  EXPECT_GT(serialize_table(big)->size(), serialize_table(small)->size() + 9000 * 8);
}

}  // namespace
}  // namespace ditto::exec
