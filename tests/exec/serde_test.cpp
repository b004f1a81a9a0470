#include "exec/serde.h"

#include <gtest/gtest.h>

#include <cstring>

#include "support/tables.h"

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

/// The v2 layout written out field by field, independent of the
/// library's writer: magic, column count, row count, then per column
/// the name length, name, type, zero padding to 8 bytes and the values
/// (strings as rows+1 offsets and one blob).
std::string reference_v2(const Table& t) {
  std::string out;
  const auto u64 = [&out](std::uint64_t v) { out.append(reinterpret_cast<const char*>(&v), 8); };
  u64(0x444954544f544232ull);
  u64(t.num_columns());
  u64(t.num_rows());
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const Field& f = t.schema()[c];
    u64(f.name.size());
    out += f.name;
    u64(static_cast<std::uint64_t>(f.type));
    while (out.size() % 8 != 0) out.push_back('\0');
    const Column& col = t.column(c);
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      if (f.type == DataType::kInt64) u64(static_cast<std::uint64_t>(col.int_at(r)));
      if (f.type == DataType::kDouble) {
        std::uint64_t bits;
        const double d = col.double_at(r);
        std::memcpy(&bits, &d, 8);
        u64(bits);
      }
    }
    if (f.type == DataType::kString) {
      std::uint64_t off = 0;
      u64(off);
      for (const std::string& s : col.strings()) u64(off += s.size());
      for (const std::string& s : col.strings()) out += s;
    }
  }
  return out;
}

/// Mixed-type parts with odd-length column names (so every column pays
/// padding) and uneven row counts; `rows[i] == 0` gives a zero-row part.
std::vector<Table> mixed_parts(const std::vector<std::size_t>& rows) {
  std::vector<Table> parts;
  std::int64_t next = -3;
  for (std::size_t n : rows) {
    std::vector<std::int64_t> ids;
    std::vector<double> vals;
    std::vector<std::string> names;
    for (std::size_t r = 0; r < n; ++r, ++next) {
      ids.push_back(next * 1000003);
      vals.push_back(static_cast<double>(next) / 7.0);
      names.push_back(std::string(static_cast<std::size_t>(next + 3) % 11, static_cast<char>('a' + next % 26)));
    }
    auto t = Table::make({{"i", DataType::kInt64}, {"value", DataType::kDouble},
                          {"label_x", DataType::kString}},
                         {Column(std::move(ids)), Column(std::move(vals)), Column(std::move(names))});
    EXPECT_TRUE(t.ok());
    parts.push_back(std::move(t).value());
  }
  return parts;
}

TEST(SerdeTablesTest, WriterMatchesTheReferenceLayout) {
  const Table t = sample();
  EXPECT_EQ(*serialize_table(t), reference_v2(t));
  const Table empty(Schema{{"abc", DataType::kString}, {"de", DataType::kDouble}});
  EXPECT_EQ(*serialize_table(empty), reference_v2(empty));
  EXPECT_EQ(*serialize_table(Table()), reference_v2(Table()));
}

TEST(SerdeTablesTest, FrameOfPartsEqualsFrameOfTheirConcatenation) {
  const std::vector<std::vector<std::size_t>> shapes = {
      {5}, {0}, {3, 4}, {0, 6, 0}, {1, 2, 3, 4, 5, 6, 7}, {0, 0, 0}, {17, 0, 1, 9}};
  for (const auto& shape : shapes) {
    const std::vector<Table> parts = mixed_parts(shape);
    std::vector<const Table*> ptrs;
    for (const Table& t : parts) ptrs.push_back(&t);
    const Result<Table> merged = concat_tables(ptrs);
    ASSERT_TRUE(merged.ok());
    const Result<storage::Payload> frame = serialize_tables(ptrs);
    ASSERT_TRUE(frame.ok()) << frame.status().to_string();
    EXPECT_EQ(**frame, *serialize_table(*merged)) << "parts: " << shape.size();
    EXPECT_EQ(**frame, reference_v2(*merged)) << "parts: " << shape.size();
    const Result<Table> back = deserialize_table(*frame);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, *merged);
  }
}

TEST(SerdeTablesTest, BorrowedPartsWriteTheSameBytes) {
  std::vector<Table> parts = mixed_parts({4, 0, 9});
  std::vector<const Table*> owned;
  for (const Table& t : parts) owned.push_back(&t);
  const std::string expect = **serialize_tables(owned);
  for (Table& t : parts) {
    for (std::size_t c = 0; c < t.num_columns(); ++c) t.column(c) = t.column(c).borrowed_copy();
  }
  EXPECT_EQ(**serialize_tables(owned), expect);
}

TEST(SerdeTablesTest, NoPartsGiveTheEmptyTable) {
  const Result<storage::Payload> frame = serialize_tables({});
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(**frame, *serialize_table(Table()));
}

TEST(SerdeTablesTest, RejectsMismatchedSchemas) {
  const Table a = table_of_ints({{"a", {1, 2}}});
  const Table b = table_of_ints({{"b", {3}}});
  const Result<storage::Payload> frame = serialize_tables({&a, &b});
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ditto::exec
