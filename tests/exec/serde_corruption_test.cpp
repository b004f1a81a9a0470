// Corruption corpus for deserialize_table (v2, the engine's reader) and
// deserialize_table_v1 (the legacy reader kept in tests/support):
// whatever bytes arrive, the parser must return a clean Status — never
// crash, throw, or over-allocate — and anything it accepts must be a
// structurally valid table. Runs under ASan/UBSan in CI.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/serde.h"
#include "support/serde_v1.h"
#include "support/tables.h"

namespace ditto::exec {
namespace {

/// Serializes in wire version 1 (the legacy writer) or 2 (the engine's).
storage::Payload serialize_as(int version, const Table& t) {
  return version == 1 ? serialize_table_v1(t) : serialize_table(t);
}

storage::Payload payload_of(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

/// Parses with the reader of wire version 1 or 2.
Result<Table> deserialize_as(int version, std::string bytes) {
  const storage::Payload p = payload_of(std::move(bytes));
  return version == 1 ? deserialize_table_v1(p) : deserialize_table(p);
}

Table must_make(Schema schema, std::vector<Column> cols) {
  auto t = Table::make(std::move(schema), std::move(cols));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// Tables covering every dtype and the awkward shapes: embedded NULs,
/// non-ASCII bytes, empty strings, zero rows, zero columns.
std::vector<Table> corpus() {
  std::vector<Table> out;
  out.push_back(must_make(
      {{"id", DataType::kInt64}, {"v", DataType::kDouble}, {"s", DataType::kString}},
      {Column(std::vector<std::int64_t>{-5, 0, INT64_MAX, INT64_MIN, 42}),
       Column(std::vector<double>{0.0, -1.25, 3.14159, -0.0, 1e300}),
       Column(std::vector<std::string>{"", std::string("a\0b", 3), "h\xc3\xa9llo",
                                       std::string(257, 'x'), "plain"})}));
  out.push_back(Table());  // zero columns, zero rows
  out.push_back(Table(Schema{{"a", DataType::kInt64},
                             {"b", DataType::kDouble},
                             {"c", DataType::kString}}));  // columns, zero rows
  out.push_back(must_make({{"only", DataType::kString}},
                          {Column(std::vector<std::string>{std::string(3, '\0')})}));
  out.push_back(must_make({{"a", DataType::kInt64}, {"b", DataType::kInt64}},
                          {Column(std::vector<std::int64_t>{1, 2, 3}),
                           Column(std::vector<std::int64_t>{4, 5, 6})}));
  return out;
}

void expect_clean_parse(int version, std::string bytes) {
  const Result<Table> r = deserialize_as(version, std::move(bytes));
  if (r.ok()) {
    // Accepting mutated bytes is fine (a value flip is undetectable);
    // producing a structurally broken table is not.
    EXPECT_TRUE(r.value().validate().is_ok());
  } else {
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST(SerdeCorruptionTest, RoundTripBothVersions) {
  for (int version : {1, 2}) {
    for (const Table& t : corpus()) {
      const auto back = deserialize_as(version, *serialize_as(version, t));
      ASSERT_TRUE(back.ok()) << "version " << version << ": " << back.status().to_string();
      EXPECT_EQ(*back, t) << "version " << version;
    }
  }
}

TEST(SerdeCorruptionTest, TruncationAtEveryOffsetFailsCleanly) {
  for (int version : {1, 2}) {
    for (const Table& t : corpus()) {
      const std::string full = *serialize_as(version, t);
      for (std::size_t len = 0; len < full.size(); ++len) {
        const Result<Table> r = deserialize_as(version, full.substr(0, len));
        EXPECT_FALSE(r.ok()) << "version " << version << " accepted a " << len
                             << "-byte prefix of " << full.size() << " bytes";
      }
    }
  }
}

TEST(SerdeCorruptionTest, BitFlipSweepNeverCrashes) {
  for (int version : {1, 2}) {
    for (const Table& t : corpus()) {
      const std::string full = *serialize_as(version, t);
      for (std::size_t pos = 0; pos < full.size(); ++pos) {
        for (unsigned char mask : {0x01, 0x80, 0xff}) {
          std::string mutated = full;
          mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
          expect_clean_parse(version, std::move(mutated));
        }
      }
    }
  }
}

TEST(SerdeCorruptionTest, ImplausibleHeadersRejectedBeforeAllocation) {
  // Huge counts must fail via bounds checks, not bad_alloc: build a
  // tiny valid payload and inflate its header fields.
  const std::string full = *serialize_table(table_of_ints({{"a", {1, 2}}}));
  for (std::size_t field_off : {8u, 16u}) {  // cols, rows
    std::string mutated = full;
    const std::uint64_t huge = ~std::uint64_t{0} - 7;
    std::memcpy(&mutated[field_off], &huge, sizeof(huge));
    const Result<Table> r = deserialize_table(payload_of(mutated));
    EXPECT_FALSE(r.ok());
  }
}

TEST(SerdeCorruptionTest, TrailingBytesRejected) {
  for (int version : {1, 2}) {
    std::string padded = *serialize_as(version, table_of_ints({{"a", {1, 2, 3}}}));
    padded.push_back('\0');
    EXPECT_FALSE(deserialize_as(version, padded).ok());
  }
}

TEST(SerdeCorruptionTest, V1PayloadsStillReadable) {
  for (const Table& t : corpus()) {
    const storage::Payload v1_bytes = serialize_table_v1(t);
    // v1 writes are stable: re-serializing produces identical bytes.
    EXPECT_EQ(*serialize_table_v1(t), *v1_bytes);
    const auto back = deserialize_table_v1(v1_bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, t);
  }
}

TEST(SerdeCorruptionTest, ShippedReaderRejectsV1) {
  // The engine reads one wire version: a v1 payload is a clean
  // INVALID_ARGUMENT that names the version, never a parse.
  for (const Table& t : corpus()) {
    const Result<Table> r = deserialize_table(serialize_table_v1(t));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("version 1"), std::string::npos)
        << r.status().message();
  }
}

}  // namespace
}  // namespace ditto::exec
