#include "exec/serde.h"

#include <cassert>
#include <cstring>

namespace ditto::exec {

namespace {

constexpr std::uint64_t kMagicV1 = 0x444954544f544231ull;  // "DITTOTB1"
constexpr std::uint64_t kMagicV2 = 0x444954544f544232ull;  // "DITTOTB2"

// Plausibility bounds applied before any allocation. Every limit is
// also cross-checked against the bytes actually present, so a corrupt
// header can neither over-allocate nor wrap an offset computation.
constexpr std::uint64_t kMaxCols = 1'000'000;
constexpr std::uint64_t kMaxNameLen = 1'000'000;
constexpr std::uint64_t kMaxRows = 1'000'000'000;

std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

// ---------------------------------------------------------------- write

/// Appends to a string reserved to the frame's exact size, so the bytes
/// are written once: no zero-fill pass and no reallocation.
class FrameWriter {
 public:
  explicit FrameWriter(std::string& out) : out_(out) {}

  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void bytes(const void* p, std::size_t n) {
    if (n > 0) out_.append(static_cast<const char*>(p), n);
  }
  void pad8() { out_.append(align8(out_.size()) - out_.size(), '\0'); }

 private:
  std::string& out_;
};

/// Exact v2 size of the concatenation of `parts` (same schema, at
/// least one part).
std::size_t size_v2(const std::vector<const Table*>& parts, std::size_t rows) {
  const Schema& schema = parts.front()->schema();
  std::size_t n = 3 * 8;
  for (std::size_t c = 0; c < schema.size(); ++c) {
    n += 8 + schema[c].name.size() + 8;
    switch (schema[c].type) {
      case DataType::kInt64:
      case DataType::kDouble:
        n = align8(n) + rows * 8;
        break;
      case DataType::kString: {
        n = align8(n) + (rows + 1) * 8;
        for (const Table* t : parts) {
          for (const std::string& s : t->column(c).strings()) n += s.size();
        }
        break;
      }
    }
  }
  return n;
}

/// Writes the v2 frame of the concatenation of `parts` (same schema,
/// at least one part) in one pass: each column's values go straight
/// from every part into the frame.
storage::Payload write_v2(const std::vector<const Table*>& parts) {
  const Schema& schema = parts.front()->schema();
  std::size_t rows = 0;
  for (const Table* t : parts) rows += t->num_rows();
  const std::size_t expect = size_v2(parts, rows);
  auto out = std::make_shared<std::string>();
  out->reserve(expect);
  FrameWriter w(*out);
  w.u64(kMagicV2);
  w.u64(schema.size());
  w.u64(rows);
  for (std::size_t c = 0; c < schema.size(); ++c) {
    const Field& f = schema[c];
    w.u64(f.name.size());
    w.bytes(f.name.data(), f.name.size());
    w.u64(static_cast<std::uint64_t>(f.type));
    w.pad8();
    switch (f.type) {
      case DataType::kInt64:
        for (const Table* t : parts) {
          const auto v = t->column(c).int_span();
          w.bytes(v.data(), v.size() * sizeof(std::int64_t));
        }
        break;
      case DataType::kDouble:
        for (const Table* t : parts) {
          const auto v = t->column(c).double_span();
          w.bytes(v.data(), v.size() * sizeof(double));
        }
        break;
      case DataType::kString: {
        // One offsets array (rows+1 entries, offsets[0] == 0) running
        // across the parts, then one contiguous blob.
        std::uint64_t off = 0;
        w.u64(off);
        for (const Table* t : parts) {
          for (const std::string& s : t->column(c).strings()) {
            off += s.size();
            w.u64(off);
          }
        }
        for (const Table* t : parts) {
          for (const std::string& s : t->column(c).strings()) w.bytes(s.data(), s.size());
        }
        break;
      }
    }
  }
  assert(out->size() == expect && "serialized size mismatch");
  return out;
}

// ----------------------------------------------------------------- read

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

  /// Skips alignment padding (position is payload-relative).
  Status skip_padding8() {
    const std::size_t pad = (8 - pos_ % 8) % 8;
    if (pad > remaining()) return Status::invalid_argument("truncated table payload");
    pos_ += pad;
    return Status::ok();
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  const char* cursor() const { return bytes_.data() + pos_; }
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
Result<Column> read_fixed_v2(Reader& r, std::uint64_t rows,
                             const std::shared_ptr<const void>& owner) {
  DITTO_RETURN_IF_ERROR(r.skip_padding8());
  if (rows > r.remaining() / sizeof(T)) {
    return Status::invalid_argument("truncated table payload");
  }
  const char* payload = r.cursor();
  DITTO_ASSIGN_OR_RETURN(const std::string_view raw, r.bytes(rows * sizeof(T)));
  const bool aligned = reinterpret_cast<std::uintptr_t>(payload) % alignof(T) == 0;
  if (aligned && rows > 0) {
    // Zero-copy: view the values where they already are; `owner` keeps
    // the payload alive for as long as the column does.
    if constexpr (std::is_same_v<T, std::int64_t>) {
      return Column::borrow_ints(owner, reinterpret_cast<const std::int64_t*>(payload),
                                 static_cast<std::size_t>(rows));
    } else {
      return Column::borrow_doubles(owner, reinterpret_cast<const double*>(payload),
                                    static_cast<std::size_t>(rows));
    }
  }
  std::vector<T> v(static_cast<std::size_t>(rows));
  if (!raw.empty()) std::memcpy(v.data(), raw.data(), raw.size());
  return Column(std::move(v));
}

Result<Column> read_strings_v2(Reader& r, std::uint64_t rows) {
  DITTO_RETURN_IF_ERROR(r.skip_padding8());
  const std::uint64_t entries = rows + 1;
  if (entries > r.remaining() / 8) return Status::invalid_argument("truncated table payload");
  DITTO_ASSIGN_OR_RETURN(const std::string_view raw_offsets, r.bytes(entries * 8));
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(entries));
  std::memcpy(offsets.data(), raw_offsets.data(), raw_offsets.size());
  if (offsets.front() != 0) return Status::invalid_argument("bad string offsets");
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) return Status::invalid_argument("bad string offsets");
  }
  DITTO_ASSIGN_OR_RETURN(const std::string_view blob, r.bytes(offsets.back()));
  std::vector<std::string> v;
  v.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t i = 0; i < rows; ++i) {
    v.emplace_back(blob.substr(static_cast<std::size_t>(offsets[i]),
                               static_cast<std::size_t>(offsets[i + 1] - offsets[i])));
  }
  return Column(std::move(v));
}

Result<Table> deserialize_impl(std::string_view bytes, const std::shared_ptr<const void>& owner) {
  Reader r(bytes);
  DITTO_ASSIGN_OR_RETURN(const std::uint64_t magic, r.u64());
  if (magic == kMagicV1) {
    return Status::invalid_argument("table payload is wire version 1, which is no longer read");
  }
  if (magic != kMagicV2) return Status::invalid_argument("bad table magic");
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
      case DataType::kInt64: col = read_fixed_v2<std::int64_t>(r, rows, owner); break;
      case DataType::kDouble: col = read_fixed_v2<double>(r, rows, owner); break;
      case DataType::kString: col = read_strings_v2(r, rows); break;
    }
    if (!col.ok()) return col.status();
    schema.push_back(std::move(field));
    columns.push_back(std::move(col).value());
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes after table");
  return Table::make(std::move(schema), std::move(columns));
}

}  // namespace

storage::Payload serialize_table(const Table& table) { return write_v2({&table}); }

Result<storage::Payload> serialize_tables(const std::vector<const Table*>& parts) {
  if (parts.empty()) return serialize_table(Table());
  for (const Table* t : parts) {
    if (t->schema() != parts.front()->schema()) {
      return Status::invalid_argument("concat schema mismatch");
    }
  }
  return write_v2(parts);
}

Result<Table> deserialize_table(const storage::Payload& bytes) {
  if (bytes == nullptr) return Status::invalid_argument("null table payload");
  return deserialize_impl(*bytes, bytes);
}

}  // namespace ditto::exec
