#include "exec/table.h"

#include <cstdio>
#include <cstdlib>

namespace ditto::exec {

namespace {
Column empty_column_of(DataType t) {
  switch (t) {
    case DataType::kInt64: return Column(std::vector<std::int64_t>{});
    case DataType::kDouble: return Column(std::vector<double>{});
    case DataType::kString: return Column(std::vector<std::string>{});
  }
  return Column();
}

/// Column `c` of every part, in order, in one vector sized for `rows`
/// values. Reading through the spans keeps borrowed sources
/// un-materialized; each range insert is one bulk memcpy.
template <typename T, typename SpanOf>
Column concat_fixed(const std::vector<const Table*>& parts, std::size_t c, std::size_t rows,
                    SpanOf span_of) {
  std::vector<T> dst;
  dst.reserve(rows);
  for (const Table* t : parts) {
    const auto src = span_of(t->column(c));
    dst.insert(dst.end(), src.begin(), src.end());
  }
  return Column(std::move(dst));
}

}  // namespace

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.size());
  for (const Field& f : schema_) columns_.push_back(empty_column_of(f.type));
}

Result<Table> Table::make(Schema schema, std::vector<Column> columns) {
  if (schema.size() != columns.size()) {
    return Status::invalid_argument("schema/column count mismatch");
  }
  Table t;
  t.schema_ = std::move(schema);
  t.columns_ = std::move(columns);
  DITTO_RETURN_IF_ERROR(t.validate());
  return t;
}

int Table::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

const Column& Table::column_by_name(const std::string& name) const {
  const Column* c = find_column(name);
  if (c == nullptr) {
    // Loud, defined failure: the release-mode alternative is indexing
    // columns_ with (size_t)-1.
    std::fprintf(stderr, "fatal: column_by_name: no such column: %s\n", name.c_str());
    std::abort();
  }
  return *c;
}

const Column* Table::find_column(const std::string& name) const {
  const int i = column_index(name);
  return i < 0 ? nullptr : &columns_[static_cast<std::size_t>(i)];
}

Result<const Column*> Table::checked_column(const std::string& name) const {
  const Column* c = find_column(name);
  if (c == nullptr) return Status::not_found("no such column: " + name);
  return c;
}

Table Table::take(const std::vector<std::size_t>& indices) const {
  Table out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const Column& c : columns_) out.columns_.push_back(c.take(indices));
  return out;
}

Table Table::slice(std::size_t offset, std::size_t count) const {
  Table out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const Column& c : columns_) out.columns_.push_back(c.slice(offset, count));
  return out;
}

void Table::ensure_owned() {
  for (Column& c : columns_) c.ensure_owned();
}

std::size_t Table::byte_size() const {
  std::size_t n = 0;
  for (const Column& c : columns_) n += c.byte_size();
  return n;
}

Status Table::validate() const {
  if (columns_.size() != schema_.size()) {
    return Status::internal("column count does not match schema");
  }
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type() != schema_[i].type) {
      return Status::internal("column type mismatch at " + schema_[i].name);
    }
    if (columns_[i].size() != num_rows()) {
      return Status::internal("ragged columns: " + schema_[i].name);
    }
  }
  return Status::ok();
}

Result<Table> concat_tables(const std::vector<const Table*>& parts) {
  if (parts.empty()) return Table();
  const Schema& schema = parts.front()->schema();
  std::size_t rows = 0;
  for (const Table* t : parts) {
    if (t->schema() != schema) return Status::invalid_argument("concat schema mismatch");
    rows += t->num_rows();
  }
  if (parts.size() == 1) return *parts.front();
  std::vector<Column> cols;
  cols.reserve(schema.size());
  for (std::size_t c = 0; c < schema.size(); ++c) {
    switch (schema[c].type) {
      case DataType::kInt64:
        cols.push_back(concat_fixed<std::int64_t>(parts, c, rows,
                                                  [](const Column& col) { return col.int_span(); }));
        break;
      case DataType::kDouble:
        cols.push_back(concat_fixed<double>(parts, c, rows,
                                            [](const Column& col) { return col.double_span(); }));
        break;
      case DataType::kString: {
        std::vector<std::string> dst;
        dst.reserve(rows);
        for (const Table* t : parts) {
          const auto& src = t->column(c).strings();
          dst.insert(dst.end(), src.begin(), src.end());
        }
        cols.emplace_back(std::move(dst));
        break;
      }
    }
  }
  return Table::make(schema, std::move(cols));
}

Result<Table> concat_tables(std::vector<Table> parts) {
  if (parts.size() == 1) return std::move(parts.front());
  std::vector<const Table*> ptrs;
  ptrs.reserve(parts.size());
  for (const Table& t : parts) ptrs.push_back(&t);
  return concat_tables(ptrs);
}

}  // namespace ditto::exec
