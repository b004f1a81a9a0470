// Columnar data representation for the analytics execution engine.
//
// The engine is the repo's stand-in for the paper's "data analytics
// execution engine atop SPRIGHT" (§5): real operators over real
// columnar data, with exchange primitives that route through zero-copy
// shared memory or the external store depending on placement.
//
// Columns come in two storage modes:
//   * OWNED — the column holds its values in a std::vector (the only
//     mode that supports mutation);
//   * BORROWED — fixed-width columns may view values that live inside
//     a storage::Payload (deserialize_table borrows every aligned v2
//     fixed-width column) or inside a shared source table
//     (range_slice). The column holds a refcount on that memory, so
//     the view can never dangle. Reads go through ColumnSpan; the
//     first vector-reference access (or any mutation) materializes an
//     owned copy.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace ditto::exec {

enum class DataType : std::uint8_t { kInt64, kDouble, kString };

const char* data_type_name(DataType t);

/// Read-only view of a fixed-width column's values. Works identically
/// for owned and borrowed columns, so hot loops (operators, serde,
/// partitioning) never force a materialization.
template <typename T>
class ColumnSpan {
 public:
  ColumnSpan() = default;
  ColumnSpan(const T* data, std::size_t size) : data_(data), size_(size) {}

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](std::size_t i) const {
    assert(i < size_ && "ColumnSpan index out of range");
    return data_[i];
  }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  friend bool operator==(ColumnSpan a, ColumnSpan b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One typed column. Value semantics; cheap to move. Copying a borrowed
/// column copies the view (pointer + refcount), not the payload.
class Column {
 public:
  Column() : data_(std::vector<std::int64_t>{}) {}
  explicit Column(std::vector<std::int64_t> v) : data_(std::move(v)) {}
  explicit Column(std::vector<double> v) : data_(std::move(v)) {}
  explicit Column(std::vector<std::string> v) : data_(std::move(v)) {}

  /// Borrowed fixed-width column: a read-only view of `n` values at `p`,
  /// kept alive by `owner` (e.g. a received wire buffer). `p` must be
  /// aligned for T and point into memory owned by `owner`.
  static Column borrow_ints(std::shared_ptr<const void> owner, const std::int64_t* p,
                            std::size_t n);
  static Column borrow_doubles(std::shared_ptr<const void> owner, const double* p,
                               std::size_t n);

  DataType type() const;
  std::size_t size() const;

  /// True while the column views memory owned by someone else.
  bool is_borrowed() const;

  /// Read-only spans; never materialize. The column must hold the
  /// matching type.
  ColumnSpan<std::int64_t> int_span() const;
  ColumnSpan<double> double_span() const;

  /// String columns are always owned.
  const std::vector<std::string>& strings() const { return std::get<2>(data_); }
  std::vector<std::string>& strings() { return std::get<2>(data_); }

  /// Owned-vector accessors. On a borrowed column the const versions
  /// lazily materialize a shared owned copy (thread-safe, at most once);
  /// the non-const versions convert the column itself to owned first
  /// (mutation implies ownership). Prefer the spans on read paths.
  const std::vector<std::int64_t>& ints() const;
  const std::vector<double>& doubles() const;
  std::vector<std::int64_t>& ints();
  std::vector<double>& doubles();

  std::int64_t int_at(std::size_t i) const { return int_span()[i]; }
  double double_at(std::size_t i) const { return double_span()[i]; }
  const std::string& string_at(std::size_t i) const {
    const auto& v = strings();
    assert(i < v.size() && "string_at index out of range");
    return v[i];
  }

  /// Converts a borrowed view into an owned vector (no-op when owned).
  void ensure_owned();

  /// New column containing the rows selected by `indices`.
  Column take(const std::vector<std::size_t>& indices) const;

  /// New column with rows [offset, offset+count). A slice of a borrowed
  /// column borrows the same payload (zero-copy); owned fixed-width
  /// columns are copied with one bulk memcpy.
  Column slice(std::size_t offset, std::size_t count) const;

  /// Same contents, but as a BORROWED fixed-width column backed by a
  /// fresh shared buffer (string columns come back owned: they are
  /// never borrowed). This is how the kernel-equivalence corpus and
  /// the micro-bench exercise the borrowed storage mode without a
  /// serde round trip.
  Column borrowed_copy() const;

  /// Approximate in-memory footprint in bytes.
  std::size_t byte_size() const;

  /// Value equality: owned and borrowed columns with equal contents
  /// compare equal.
  friend bool operator==(const Column& a, const Column& b);

 private:
  template <typename T>
  struct Borrowed {
    std::shared_ptr<const void> owner;
    const T* data = nullptr;
    std::size_t size = 0;
    /// Lazily materialized owned copy, shared by copies of this column
    /// (filled at most once under the flag).
    struct Cache {
      std::once_flag once;
      std::vector<T> values;
    };
    std::shared_ptr<Cache> cache = std::make_shared<Cache>();
  };

  template <typename T>
  const std::vector<T>& materialized(const Borrowed<T>& b) const {
    std::call_once(b.cache->once,
                   [&b] { b.cache->values.assign(b.data, b.data + b.size); });
    return b.cache->values;
  }

  std::variant<std::vector<std::int64_t>, std::vector<double>, std::vector<std::string>,
               Borrowed<std::int64_t>, Borrowed<double>>
      data_;
};

/// Schema field.
struct Field {
  std::string name;
  DataType type = DataType::kInt64;
  friend bool operator==(const Field& a, const Field& b) {
    return a.name == b.name && a.type == b.type;
  }
};

using Schema = std::vector<Field>;

}  // namespace ditto::exec
