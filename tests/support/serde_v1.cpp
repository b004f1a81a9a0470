#include "support/serde_v1.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ditto::exec {
namespace {

constexpr std::uint64_t kMagicV1 = 0x444954544f544231ull;  // "DITTOTB1"

std::size_t size_v1(const Table& t) {
  const std::size_t rows = t.num_rows();
  std::size_t n = 3 * 8;
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    n += 8 + t.schema()[c].name.size() + 8;
    switch (t.schema()[c].type) {
      case DataType::kInt64:
      case DataType::kDouble:
        n += rows * 8;
        break;
      case DataType::kString:
        for (const std::string& s : t.column(c).strings()) n += 8 + s.size();
        break;
    }
  }
  return n;
}

// Plausibility bounds, the same as the v2 reader's (exec/serde.cpp).
constexpr std::uint64_t kMaxCols = 1'000'000;
constexpr std::uint64_t kMaxNameLen = 1'000'000;
constexpr std::uint64_t kMaxRows = 1'000'000'000;

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  Result<std::uint64_t> u64() {
    if (remaining() < sizeof(std::uint64_t)) {
      return Status::invalid_argument("truncated table payload");
    }
    std::uint64_t v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }

  /// Overflow-safe: compares `n` against what is left instead of
  /// computing pos_ + n (which wraps for huge corrupt lengths).
  Result<std::string_view> bytes(std::uint64_t n) {
    if (n > remaining()) return Status::invalid_argument("truncated table payload");
    const std::string_view v = bytes_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

Result<Field> read_field(Reader& r) {
  DITTO_ASSIGN_OR_RETURN(const std::uint64_t name_len, r.u64());
  if (name_len > kMaxNameLen) return Status::invalid_argument("implausible column name length");
  DITTO_ASSIGN_OR_RETURN(const std::string_view name, r.bytes(name_len));
  DITTO_ASSIGN_OR_RETURN(const std::uint64_t type_raw, r.u64());
  if (type_raw > static_cast<std::uint64_t>(DataType::kString)) {
    return Status::invalid_argument("bad column type");
  }
  return Field{std::string(name), static_cast<DataType>(type_raw)};
}

template <typename T>
Result<Column> read_fixed_v1(Reader& r, std::uint64_t rows) {
  // Bound the allocation by the bytes actually present (division, so a
  // huge `rows` cannot wrap the product).
  if (rows > r.remaining() / sizeof(T)) {
    return Status::invalid_argument("truncated table payload");
  }
  DITTO_ASSIGN_OR_RETURN(const std::string_view raw, r.bytes(rows * sizeof(T)));
  std::vector<T> v(static_cast<std::size_t>(rows));
  if (!raw.empty()) std::memcpy(v.data(), raw.data(), raw.size());
  return Column(std::move(v));
}

Result<Column> read_strings_v1(Reader& r, std::uint64_t rows) {
  // Every v1 string costs at least its 8-byte length prefix, so the
  // reserve below is bounded by the payload size.
  if (rows > r.remaining() / 8) return Status::invalid_argument("truncated table payload");
  std::vector<std::string> v;
  v.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t i = 0; i < rows; ++i) {
    DITTO_ASSIGN_OR_RETURN(const std::uint64_t len, r.u64());
    DITTO_ASSIGN_OR_RETURN(const std::string_view s, r.bytes(len));
    v.emplace_back(s);
  }
  return Column(std::move(v));
}

class Writer {
 public:
  explicit Writer(std::uint8_t* out) : out_(out) {}
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void bytes(const void* p, std::size_t n) {
    if (n > 0) std::memcpy(out_ + pos_, p, n);
    pos_ += n;
  }

 private:
  std::uint8_t* out_;
  std::size_t pos_ = 0;
};

}  // namespace

storage::Payload serialize_table_v1(const Table& t) {
  auto out = std::make_shared<std::string>(size_v1(t), '\0');
  Writer w(reinterpret_cast<std::uint8_t*>(out->data()));
  w.u64(kMagicV1);
  w.u64(t.num_columns());
  w.u64(t.num_rows());
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const Field& f = t.schema()[c];
    w.u64(f.name.size());
    w.bytes(f.name.data(), f.name.size());
    w.u64(static_cast<std::uint64_t>(f.type));
    const Column& col = t.column(c);
    switch (col.type()) {
      case DataType::kInt64: {
        const auto v = col.int_span();
        w.bytes(v.data(), v.size() * sizeof(std::int64_t));
        break;
      }
      case DataType::kDouble: {
        const auto v = col.double_span();
        w.bytes(v.data(), v.size() * sizeof(double));
        break;
      }
      case DataType::kString:
        for (const std::string& s : col.strings()) {
          w.u64(s.size());
          w.bytes(s.data(), s.size());
        }
        break;
    }
  }
  return out;
}

Result<Table> deserialize_table_v1(const storage::Payload& bytes) {
  if (bytes == nullptr) return Status::invalid_argument("null table payload");
  Reader r(*bytes);
  DITTO_ASSIGN_OR_RETURN(const std::uint64_t magic, r.u64());
  if (magic != kMagicV1) return Status::invalid_argument("bad table magic");
  DITTO_ASSIGN_OR_RETURN(const std::uint64_t cols, r.u64());
  DITTO_ASSIGN_OR_RETURN(const std::uint64_t rows, r.u64());
  if (cols > kMaxCols) return Status::invalid_argument("implausible column count");
  if (rows > kMaxRows) return Status::invalid_argument("implausible row count");

  Schema schema;
  std::vector<Column> columns;
  for (std::uint64_t c = 0; c < cols; ++c) {
    DITTO_ASSIGN_OR_RETURN(Field field, read_field(r));
    Result<Column> col = Status::invalid_argument("unreachable");
    switch (field.type) {
      case DataType::kInt64: col = read_fixed_v1<std::int64_t>(r, rows); break;
      case DataType::kDouble: col = read_fixed_v1<double>(r, rows); break;
      case DataType::kString: col = read_strings_v1(r, rows); break;
    }
    if (!col.ok()) return col.status();
    schema.push_back(std::move(field));
    columns.push_back(std::move(col).value());
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes after table");
  return Table::make(std::move(schema), std::move(columns));
}

}  // namespace ditto::exec
