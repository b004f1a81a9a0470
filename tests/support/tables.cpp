#include "support/tables.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace ditto::exec {

Table table_of_ints(
    std::initializer_list<std::pair<std::string, std::vector<std::int64_t>>> cols) {
  Schema schema;
  std::vector<Column> columns;
  for (const auto& [name, values] : cols) {
    schema.push_back({name, DataType::kInt64});
    columns.emplace_back(values);
  }
  auto t = Table::make(std::move(schema), std::move(columns));
  assert(t.ok());
  return std::move(t).value();
}

void append_row_from(Table& dst, const Table& src, std::size_t row) {
  assert(dst.schema() == src.schema());
  for (std::size_t c = 0; c < dst.num_columns(); ++c) {
    Column& out = dst.column(c);
    const Column& in = src.column(c);
    switch (out.type()) {
      case DataType::kInt64: out.ints().push_back(in.int_at(row)); break;
      case DataType::kDouble: out.doubles().push_back(in.double_at(row)); break;
      case DataType::kString: out.strings().push_back(in.string_at(row)); break;
    }
  }
}

Result<Table> sort_by_int(const Table& in, const std::string& col, bool ascending) {
  DITTO_ASSIGN_OR_RETURN(const Column* cp, in.checked_column(col));
  if (cp->type() != DataType::kInt64) {
    return Status::invalid_argument("sort_by_int on non-int column");
  }
  const ColumnSpan<std::int64_t> keys = cp->int_span();
  std::vector<std::size_t> idx(in.num_rows());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return ascending ? keys[a] < keys[b] : keys[a] > keys[b];
  });
  return in.take(idx);
}

}  // namespace ditto::exec
