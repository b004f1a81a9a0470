// Table: an ordered set of equal-length typed columns with a schema.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/column.h"

namespace ditto::exec {

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  /// Builds a table from a schema and matching columns.
  static Result<Table> make(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  std::size_t num_columns() const { return columns_.size(); }
  std::size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  bool empty() const { return num_rows() == 0; }

  const Column& column(std::size_t i) const { return columns_.at(i); }
  Column& column(std::size_t i) { return columns_.at(i); }

  /// Index of a named column; -1 when absent.
  int column_index(const std::string& name) const;

  /// Named lookup; ABORTS with a diagnostic when the column is absent
  /// (defined behaviour in release builds too). Prefer checked_column
  /// on any path fed by untrusted or computed schemas.
  const Column& column_by_name(const std::string& name) const;

  /// Named lookup as a Result (NOT_FOUND on miss); the never-null
  /// pointer makes DITTO_ASSIGN_OR_RETURN chains read naturally.
  Result<const Column*> checked_column(const std::string& name) const;

  /// New table with the rows selected by `indices` (in order).
  Table take(const std::vector<std::size_t>& indices) const;

  /// New table with rows [offset, offset+count): the bulk fast path for
  /// contiguous selections (range partitioning, limit). Fixed-width
  /// columns copy with one memcpy, or stay zero-copy when borrowed.
  Table slice(std::size_t offset, std::size_t count) const;

  /// Converts every borrowed column to owned storage.
  void ensure_owned();

  /// Approximate in-memory footprint.
  std::size_t byte_size() const;

  /// Structural check: every column matches the schema type and all
  /// columns have equal length.
  Status validate() const;

  friend bool operator==(const Table& a, const Table& b) {
    return a.schema_ == b.schema_ && a.columns_ == b.columns_;
  }

 private:
  /// Named lookup that can miss: nullptr when absent.
  const Column* find_column(const std::string& name) const;

  Schema schema_;
  std::vector<Column> columns_;
};

/// Concatenates `parts` in order. Each output column is sized once and
/// every value is copied once; a single part comes back as a plain copy
/// (borrowed columns stay borrowed). Every part must have the first
/// part's schema ("concat schema mismatch"). No parts give an empty
/// table.
Result<Table> concat_tables(const std::vector<const Table*>& parts);

/// Same, but a single part is moved through without any copy.
Result<Table> concat_tables(std::vector<Table> parts);

}  // namespace ditto::exec
