// Relational operators of the analytics execution engine (paper §5:
// "The engine integrates a set of SQL operators (e.g., join and
// groupby) for analytics queries").
//
// Operators are pure functions Table -> Table; the task runtime binds
// them to stages. These four are the ones the engine's queries run.
//
// Filter, join and group-by dispatch to the columnar multi-core
// kernels in kernels.{h,cpp}; each takes an optional ThreadPool*
// (nullptr = use the task's compute pool, see task_compute_pool() in
// kernels.h). Inner joins and sparse-key group-bys hash; semi and anti
// joins and dense-key group-bys index by key directly. Their
// row-at-a-time oracle lives in tests/support/reference.h.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/table.h"

namespace ditto {
class ThreadPool;
}

namespace ditto::exec {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// One typed columnar predicate: `column op rhs`, where rhs is either
/// a constant or `scale * rhs_column[r]`. The comparison runs in int64
/// when the left column, the rhs and the scale are all integral;
/// otherwise both sides are widened to double (matching what the
/// row-predicate lambdas these replaced computed via double_at()).
struct ColumnPred {
  std::string column;      ///< left-hand column (int64 or double)
  CmpOp op = CmpOp::kEq;
  std::string rhs_column;  ///< when non-empty: compare against scale * rhs[r]
  double scale = 1.0;      ///< multiplier for rhs_column (ignored for consts)
  std::int64_t int_value = 0;
  double double_value = 0.0;
  bool value_is_int = false;  ///< which constant field is live
};

/// `col op v` against an int64 constant.
ColumnPred pred_int(std::string column, CmpOp op, std::int64_t v);
/// `col op v` against a double constant.
ColumnPred pred_double(std::string column, CmpOp op, double v);
/// `col op scale * rhs[r]` (column vs scaled column).
ColumnPred pred_cols(std::string column, CmpOp op, std::string rhs_column,
                     double scale = 1.0);

/// Keep rows satisfying ALL predicates (fused AND, evaluated
/// column-at-a-time into one selection mask). Zero predicates keep
/// every row.
Result<Table> filter_cols(const Table& in, const std::vector<ColumnPred>& preds,
                          ThreadPool* pool = nullptr);

/// Keep only the named columns, in the given order.
Result<Table> project(const Table& in, const std::vector<std::string>& columns);

enum class JoinKind { kInner, kLeftSemi, kLeftAnti };

/// Hash join on integer key columns `left_key` / `right_key`.
///  - kInner:    output = left columns + right columns (right key dropped)
///  - kLeftSemi: left rows with >= 1 match (left columns only)
///  - kLeftAnti: left rows with no match (left columns only)
/// Output order is deterministic: left rows in their input order; an
/// inner-join left row emits its duplicate matches by ascending right
/// row.
Result<Table> hash_join(const Table& left, const std::string& left_key, const Table& right,
                        const std::string& right_key, JoinKind kind = JoinKind::kInner,
                        ThreadPool* pool = nullptr);

enum class AggKind { kSum, kCount, kMin, kMax, kAvg, kFirstInt };

struct AggSpec {
  AggKind kind = AggKind::kSum;
  std::string column;  ///< ignored for kCount
  std::string as;      ///< output column name
};

/// Group by an integer key column and aggregate.
/// Numeric aggregates output double columns except count and first-int
/// (int64). kFirstInt keeps the group's first-seen value of an int64
/// column — the passthrough needed to carry foreign keys through an
/// aggregation (e.g. Q95 keeps a representative date per order).
Result<Table> group_by(const Table& in, const std::string& key,
                       const std::vector<AggSpec>& aggs, ThreadPool* pool = nullptr);

}  // namespace ditto::exec
