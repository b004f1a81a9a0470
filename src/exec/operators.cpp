#include "exec/operators.h"

#include <limits>

#include "exec/kernels.h"

namespace ditto::exec {

namespace {

/// nullptr pool argument means "use the pool the engine granted this
/// task" (none outside a task: kernels run serial).
ThreadPool* resolve_pool(ThreadPool* pool) {
  return pool != nullptr ? pool : task_compute_pool();
}

/// The kernels index rows with uint32 (halves the footprint of row-id
/// arrays). Serde caps a frame at 10^9 rows, so no exchanged table
/// reaches the limit.
Status check_rows(std::size_t rows) {
  if (rows <= std::numeric_limits<std::uint32_t>::max()) return Status::ok();
  return Status::out_of_range("operator input exceeds 2^32 rows");
}

}  // namespace

ColumnPred pred_int(std::string column, CmpOp op, std::int64_t v) {
  ColumnPred p;
  p.column = std::move(column);
  p.op = op;
  p.int_value = v;
  p.value_is_int = true;
  return p;
}

ColumnPred pred_double(std::string column, CmpOp op, double v) {
  ColumnPred p;
  p.column = std::move(column);
  p.op = op;
  p.double_value = v;
  return p;
}

ColumnPred pred_cols(std::string column, CmpOp op, std::string rhs_column, double scale) {
  ColumnPred p;
  p.column = std::move(column);
  p.op = op;
  p.rhs_column = std::move(rhs_column);
  p.scale = scale;
  return p;
}

Result<Table> filter_cols(const Table& in, const std::vector<ColumnPred>& preds,
                          ThreadPool* pool) {
  detail::KernelTimer timer(&KernelSeconds::filter);
  DITTO_RETURN_IF_ERROR(check_rows(in.num_rows()));
  return filter_kernel(in, preds, resolve_pool(pool));
}

Result<Table> project(const Table& in, const std::vector<std::string>& columns) {
  Schema schema;
  std::vector<Column> cols;
  for (const std::string& name : columns) {
    const int ci = in.column_index(name);
    if (ci < 0) return Status::not_found("no such column: " + name);
    schema.push_back(in.schema()[ci]);
    cols.push_back(in.column(ci));
  }
  return Table::make(std::move(schema), std::move(cols));
}

Result<Table> hash_join(const Table& left, const std::string& left_key, const Table& right,
                        const std::string& right_key, JoinKind kind, ThreadPool* pool) {
  detail::KernelTimer timer(&KernelSeconds::join);
  DITTO_RETURN_IF_ERROR(check_rows(left.num_rows()));
  DITTO_RETURN_IF_ERROR(check_rows(right.num_rows()));
  return hash_join_kernel(left, left_key, right, right_key, kind, resolve_pool(pool));
}

Result<Table> group_by(const Table& in, const std::string& key,
                       const std::vector<AggSpec>& aggs, ThreadPool* pool) {
  detail::KernelTimer timer(&KernelSeconds::group_by);
  DITTO_RETURN_IF_ERROR(check_rows(in.num_rows()));
  return group_by_kernel(in, key, aggs, resolve_pool(pool));
}

}  // namespace ditto::exec
