// Relational operators of the analytics execution engine (paper §5:
// "The engine integrates a set of SQL operators (e.g., join and
// groupby) for analytics queries").
//
// Operators are pure functions Table -> Table; the task runtime binds
// them to stages. All joins hash the build side.
//
// The hot operators (group-by, hash join, filter, top-k) dispatch to
// the columnar multi-core kernels in kernels.{h,cpp}; each takes an
// optional ThreadPool* (nullptr = use the task's compute pool, see
// task_compute_pool() in kernels.h). The original row-at-a-time
// formulations are retained verbatim under ditto::exec::reference as
// the bit-identity oracle for the kernel-equivalence corpus.
#pragma once

#include <functional>
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

/// Group by MULTIPLE int64 key columns (composite key) and aggregate.
/// Output columns: the key columns (in order), then the aggregates;
/// rows ordered lexicographically by key. TPC-DS queries group by
/// composite keys routinely (Q1: customer x store).
Result<Table> group_by_multi(const Table& in, const std::vector<std::string>& keys,
                             const std::vector<AggSpec>& aggs,
                             ThreadPool* pool = nullptr);

/// Group by an integer key column and aggregate.
/// Numeric aggregates output double columns except count and first-int
/// (int64). kFirstInt keeps the group's first-seen value of an int64
/// column — the passthrough needed to carry foreign keys through an
/// aggregation (e.g. Q95 keeps a representative date per order).
Result<Table> group_by(const Table& in, const std::string& key,
                       const std::vector<AggSpec>& aggs, ThreadPool* pool = nullptr);

/// Sort ascending/descending by an integer column. Stable.
Result<Table> sort_by_int(const Table& in, const std::string& col, bool ascending = true);

/// First n rows.
Table limit(const Table& in, std::size_t n);

/// Distinct count of an integer column (Q16/Q94/Q95's COUNT(DISTINCT)).
Result<std::size_t> count_distinct(const Table& in, const std::string& col);

/// Rows with distinct values of an integer key column; the first
/// occurrence of each key wins.
Result<Table> distinct_by(const Table& in, const std::string& key);

/// Top-k rows by an integer column (descending by default). Bounded
/// O(k)-memory heap selection, O(n log k); ties keep earlier rows,
/// exactly as the stable-sort-then-truncate formulation did.
Result<Table> top_k_by_int(const Table& in, const std::string& col, std::size_t k,
                           bool descending = true);

/// Concatenation of same-schema tables (SQL UNION ALL).
Result<Table> union_all(const std::vector<Table>& tables);

/// Adds a derived double column: out[r] = f(in, r). The paper's engine
/// exposes scalar expressions; this is the minimal general hook.
using ScalarFn = std::function<double(const Table&, std::size_t)>;
Result<Table> with_column(const Table& in, const std::string& name, const ScalarFn& f);

/// Row-at-a-time reference implementations, retained as the oracle for
/// the kernel-equivalence corpus (tests + bench gates). Semantics are
/// identical to the dispatching operators above — including error
/// statuses, output schemas and row order — just single-threaded and
/// built on std:: containers.
namespace reference {

Result<Table> filter_cols(const Table& in, const std::vector<ColumnPred>& preds);
Result<Table> hash_join(const Table& left, const std::string& left_key, const Table& right,
                        const std::string& right_key, JoinKind kind = JoinKind::kInner);
Result<Table> group_by(const Table& in, const std::string& key,
                       const std::vector<AggSpec>& aggs);
Result<Table> group_by_multi(const Table& in, const std::vector<std::string>& keys,
                             const std::vector<AggSpec>& aggs);
Result<Table> top_k_by_int(const Table& in, const std::string& col, std::size_t k,
                           bool descending = true);

}  // namespace reference

}  // namespace ditto::exec
