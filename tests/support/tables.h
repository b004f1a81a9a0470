// Table helpers for tests: build small int64 tables inline, append
// rows one at a time, and put rows in a fixed order before comparing.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/table.h"

namespace ditto::exec {

/// An all-int64 table from (name, values) pairs of equal length.
Table table_of_ints(std::initializer_list<std::pair<std::string, std::vector<std::int64_t>>> cols);

/// Appends row `row` of `src` (same schema) to `dst`.
void append_row_from(Table& dst, const Table& src, std::size_t row);

/// Sort ascending/descending by an integer column. Stable.
Result<Table> sort_by_int(const Table& in, const std::string& col, bool ascending = true);

}  // namespace ditto::exec
