#include "exec/operators.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "exec/kernels.h"

namespace ditto::exec {

namespace {

/// nullptr pool argument means "use the pool the engine granted this
/// task" (none outside a task: kernels run serial).
ThreadPool* resolve_pool(ThreadPool* pool) {
  return pool != nullptr ? pool : task_compute_pool();
}

/// The kernels index rows with uint32 (halves the footprint of row-id
/// arrays); beyond that the row-at-a-time references take over.
bool fits_u32(std::size_t rows) {
  return rows <= std::numeric_limits<std::uint32_t>::max();
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
  if (!fits_u32(in.num_rows())) return reference::filter_cols(in, preds);
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
  if (!fits_u32(left.num_rows()) || !fits_u32(right.num_rows())) {
    return reference::hash_join(left, left_key, right, right_key, kind);
  }
  return hash_join_kernel(left, left_key, right, right_key, kind, resolve_pool(pool));
}

Result<Table> group_by(const Table& in, const std::string& key,
                       const std::vector<AggSpec>& aggs, ThreadPool* pool) {
  detail::KernelTimer timer(&KernelSeconds::group_by);
  if (!fits_u32(in.num_rows())) return reference::group_by(in, key, aggs);
  return group_by_kernel(in, key, aggs, resolve_pool(pool));
}

Result<Table> group_by_multi(const Table& in, const std::vector<std::string>& keys,
                             const std::vector<AggSpec>& aggs, ThreadPool* pool) {
  detail::KernelTimer timer(&KernelSeconds::group_by);
  if (!fits_u32(in.num_rows())) return reference::group_by_multi(in, keys, aggs);
  return group_by_multi_kernel(in, keys, aggs, resolve_pool(pool));
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

Table limit(const Table& in, std::size_t n) {
  std::vector<std::size_t> idx;
  const std::size_t take_n = std::min(n, in.num_rows());
  idx.reserve(take_n);
  for (std::size_t i = 0; i < take_n; ++i) idx.push_back(i);
  return in.take(idx);
}

Result<Table> distinct_by(const Table& in, const std::string& key) {
  DITTO_ASSIGN_OR_RETURN(const Column* kp, in.checked_column(key));
  if (kp->type() != DataType::kInt64) {
    return Status::invalid_argument("distinct_by key must be int64");
  }
  const ColumnSpan<std::int64_t> keys = kp->int_span();
  std::unordered_set<std::int64_t> seen;
  std::vector<std::size_t> keep;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    if (seen.insert(keys[r]).second) keep.push_back(r);
  }
  return in.take(keep);
}

Result<Table> top_k_by_int(const Table& in, const std::string& col, std::size_t k,
                           bool descending) {
  detail::KernelTimer timer(&KernelSeconds::top_k);
  DITTO_ASSIGN_OR_RETURN(const Column* cp, in.checked_column(col));
  if (cp->type() != DataType::kInt64) {
    return Status::invalid_argument("sort_by_int on non-int column");
  }
  const ColumnSpan<std::int64_t> keys = cp->int_span();
  const std::size_t rows = in.num_rows();
  if (k == 0) return in.take({});

  // Bounded selection: a k-entry heap with the WORST candidate on top.
  // "Better" = larger value for descending (smaller for ascending),
  // ties broken toward the earlier row — exactly the order
  // stable_sort-then-truncate produced, so the selected set and the
  // final sorted output are bit-identical to the old formulation at
  // O(n log k) time and O(k) memory.
  struct Entry {
    std::int64_t value;
    std::size_t row;
  };
  auto better = [descending](const Entry& a, const Entry& b) {
    if (a.value != b.value) return descending ? a.value > b.value : a.value < b.value;
    return a.row < b.row;
  };
  std::vector<Entry> heap;  // max-heap by `better`: front is the worst kept
  heap.reserve(std::min(k, rows));
  for (std::size_t r = 0; r < rows; ++r) {
    const Entry e{keys[r], r};
    if (heap.size() < k) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(e, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = e;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
  std::sort(heap.begin(), heap.end(), better);
  std::vector<std::size_t> idx;
  idx.reserve(heap.size());
  for (const Entry& e : heap) idx.push_back(e.row);
  return in.take(idx);
}

Result<Table> union_all(const std::vector<Table>& tables) {
  if (tables.empty()) return Status::invalid_argument("union_all of nothing");
  std::vector<const Table*> parts;
  parts.reserve(tables.size());
  for (const Table& t : tables) parts.push_back(&t);
  return concat_tables(parts);
}

Result<Table> with_column(const Table& in, const std::string& name, const ScalarFn& f) {
  if (in.column_index(name) >= 0) {
    return Status::already_exists("column exists: " + name);
  }
  std::vector<double> values;
  values.reserve(in.num_rows());
  for (std::size_t r = 0; r < in.num_rows(); ++r) values.push_back(f(in, r));
  Schema schema = in.schema();
  schema.push_back({name, DataType::kDouble});
  std::vector<Column> cols;
  for (std::size_t c = 0; c < in.num_columns(); ++c) cols.push_back(in.column(c));
  cols.emplace_back(std::move(values));
  return Table::make(std::move(schema), std::move(cols));
}

Result<std::size_t> count_distinct(const Table& in, const std::string& col) {
  DITTO_ASSIGN_OR_RETURN(const Column* cp, in.checked_column(col));
  if (cp->type() != DataType::kInt64) {
    return Status::invalid_argument("count_distinct on non-int column");
  }
  const ColumnSpan<std::int64_t> v = cp->int_span();
  const std::unordered_set<std::int64_t> set(v.begin(), v.end());
  return set.size();
}

// ---------------------------------------------------------------------------
// Row-at-a-time reference implementations: the bit-identity oracle for
// the kernel-equivalence corpus. Kept deliberately on std:: containers
// and per-row control flow; do not "optimize" these.

namespace reference {

namespace {

template <typename T>
bool cmp_one(CmpOp op, T a, T b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

}  // namespace

Result<Table> filter_cols(const Table& in, const std::vector<ColumnPred>& preds) {
  // Same comparison-domain rules as the kernel (kernels.h): int64
  // compare only when every term is integral, else widen to double.
  struct Resolved {
    const Column* lhs;
    const Column* rhs = nullptr;
  };
  std::vector<Resolved> res;
  for (const ColumnPred& p : preds) {
    Resolved r;
    DITTO_ASSIGN_OR_RETURN(r.lhs, in.checked_column(p.column));
    if (r.lhs->type() == DataType::kString) {
      return Status::invalid_argument("filter_cols on string column: " + p.column);
    }
    if (!p.rhs_column.empty()) {
      DITTO_ASSIGN_OR_RETURN(r.rhs, in.checked_column(p.rhs_column));
      if (r.rhs->type() == DataType::kString) {
        return Status::invalid_argument("filter_cols on string column: " + p.rhs_column);
      }
    }
    res.push_back(r);
  }
  std::vector<std::size_t> keep;
  for (std::size_t row = 0; row < in.num_rows(); ++row) {
    bool ok = true;
    for (std::size_t i = 0; ok && i < preds.size(); ++i) {
      const ColumnPred& p = preds[i];
      const Column& lhs = *res[i].lhs;
      const bool lhs_int = lhs.type() == DataType::kInt64;
      if (res[i].rhs != nullptr) {
        const Column& rhs = *res[i].rhs;
        const bool rhs_int = rhs.type() == DataType::kInt64;
        if (lhs_int && rhs_int && p.scale == 1.0) {
          ok = cmp_one(p.op, lhs.int_at(row), rhs.int_at(row));
        } else {
          const double l = lhs_int ? static_cast<double>(lhs.int_at(row)) : lhs.double_at(row);
          const double r =
              rhs_int ? static_cast<double>(rhs.int_at(row)) : rhs.double_at(row);
          ok = cmp_one(p.op, l, p.scale * r);
        }
      } else if (lhs_int && p.value_is_int) {
        ok = cmp_one(p.op, lhs.int_at(row), p.int_value);
      } else {
        const double l = lhs_int ? static_cast<double>(lhs.int_at(row)) : lhs.double_at(row);
        const double c =
            p.value_is_int ? static_cast<double>(p.int_value) : p.double_value;
        ok = cmp_one(p.op, l, c);
      }
    }
    if (ok) keep.push_back(row);
  }
  return in.take(keep);
}

Result<Table> hash_join(const Table& left, const std::string& left_key, const Table& right,
                        const std::string& right_key, JoinKind kind) {
  const int lk = left.column_index(left_key);
  const int rk = right.column_index(right_key);
  if (lk < 0 || rk < 0) return Status::not_found("join key column missing");
  if (left.column(lk).type() != DataType::kInt64 ||
      right.column(rk).type() != DataType::kInt64) {
    return Status::invalid_argument("join keys must be int64");
  }

  // Build a hash table over the right side; each key's match list is
  // in ascending right-row order (the documented duplicate order).
  std::unordered_map<std::int64_t, std::vector<std::size_t>> build;
  build.reserve(right.num_rows());
  const ColumnSpan<std::int64_t> rkeys = right.column(rk).int_span();
  for (std::size_t r = 0; r < rkeys.size(); ++r) build[rkeys[r]].push_back(r);

  const ColumnSpan<std::int64_t> lkeys = left.column(lk).int_span();

  if (kind == JoinKind::kLeftSemi || kind == JoinKind::kLeftAnti) {
    std::vector<std::size_t> keep;
    for (std::size_t r = 0; r < lkeys.size(); ++r) {
      const bool match = build.count(lkeys[r]) > 0;
      if (match == (kind == JoinKind::kLeftSemi)) keep.push_back(r);
    }
    return left.take(keep);
  }

  // Inner join: left columns + right columns minus the right key.
  Schema schema = left.schema();
  for (std::size_t c = 0; c < right.num_columns(); ++c) {
    if (static_cast<int>(c) == rk) continue;
    Field f = right.schema()[c];
    // Disambiguate clashing names.
    if (left.column_index(f.name) >= 0) f.name = "r_" + f.name;
    schema.push_back(f);
  }

  std::vector<std::size_t> lrows, rrows;
  for (std::size_t r = 0; r < lkeys.size(); ++r) {
    const auto it = build.find(lkeys[r]);
    if (it == build.end()) continue;
    for (std::size_t rr : it->second) {
      lrows.push_back(r);
      rrows.push_back(rr);
    }
  }
  const Table lpart = left.take(lrows);
  const Table rpart = right.take(rrows);
  std::vector<Column> cols;
  for (std::size_t c = 0; c < lpart.num_columns(); ++c) cols.push_back(lpart.column(c));
  for (std::size_t c = 0; c < rpart.num_columns(); ++c) {
    if (static_cast<int>(c) == rk) continue;
    cols.push_back(rpart.column(c));
  }
  return Table::make(std::move(schema), std::move(cols));
}

Result<Table> group_by(const Table& in, const std::string& key,
                       const std::vector<AggSpec>& aggs) {
  DITTO_ASSIGN_OR_RETURN(const Column* kp, in.checked_column(key));
  if (kp->type() != DataType::kInt64) {
    return Status::invalid_argument("group_by key must be int64");
  }

  struct Acc {
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::int64_t count = 0;
    std::int64_t first = 0;
    bool has_first = false;
  };

  // Resolve aggregate inputs (spans: borrowed columns stay borrowed).
  struct Input {
    ColumnSpan<std::int64_t> ints;
    ColumnSpan<double> doubles;
    bool is_int = false;
  };
  std::vector<Input> inputs(aggs.size());
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == AggKind::kCount) continue;
    DITTO_ASSIGN_OR_RETURN(const Column* cp, in.checked_column(aggs[a].column));
    switch (cp->type()) {
      case DataType::kInt64:
        inputs[a].ints = cp->int_span();
        inputs[a].is_int = true;
        break;
      case DataType::kDouble: inputs[a].doubles = cp->double_span(); break;
      case DataType::kString:
        return Status::invalid_argument("cannot aggregate string column");
    }
  }

  const ColumnSpan<std::int64_t> keys = kp->int_span();
  std::unordered_map<std::int64_t, std::vector<Acc>> groups;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    auto [it, inserted] = groups.try_emplace(keys[r], std::vector<Acc>(aggs.size()));
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      Acc& acc = it->second[a];
      ++acc.count;
      if (aggs[a].kind == AggKind::kCount) continue;
      if (aggs[a].kind == AggKind::kFirstInt) {
        if (!acc.has_first && inputs[a].is_int) {
          acc.first = inputs[a].ints[r];
          acc.has_first = true;
        }
        continue;
      }
      const double v = inputs[a].is_int ? static_cast<double>(inputs[a].ints[r])
                                        : inputs[a].doubles[r];
      acc.sum += v;
      acc.min = std::min(acc.min, v);
      acc.max = std::max(acc.max, v);
    }
  }

  // Deterministic output order: sorted by key.
  std::vector<std::int64_t> sorted_keys;
  sorted_keys.reserve(groups.size());
  for (const auto& [k, v] : groups) sorted_keys.push_back(k);
  std::sort(sorted_keys.begin(), sorted_keys.end());

  Schema schema{{key, DataType::kInt64}};
  std::vector<Column> cols;
  cols.emplace_back(sorted_keys);
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == AggKind::kCount) {
      std::vector<std::int64_t> v;
      v.reserve(sorted_keys.size());
      for (std::int64_t k : sorted_keys) v.push_back(groups[k][a].count);
      schema.push_back({aggs[a].as, DataType::kInt64});
      cols.emplace_back(std::move(v));
    } else if (aggs[a].kind == AggKind::kFirstInt) {
      if (!inputs[a].is_int) {
        return Status::invalid_argument("first-int aggregate needs an int64 column");
      }
      std::vector<std::int64_t> v;
      v.reserve(sorted_keys.size());
      for (std::int64_t k : sorted_keys) v.push_back(groups[k][a].first);
      schema.push_back({aggs[a].as, DataType::kInt64});
      cols.emplace_back(std::move(v));
    } else {
      std::vector<double> v;
      v.reserve(sorted_keys.size());
      for (std::int64_t k : sorted_keys) {
        const Acc& acc = groups[k][a];
        switch (aggs[a].kind) {
          case AggKind::kSum: v.push_back(acc.sum); break;
          case AggKind::kMin: v.push_back(acc.min); break;
          case AggKind::kMax: v.push_back(acc.max); break;
          case AggKind::kAvg: v.push_back(acc.sum / static_cast<double>(acc.count)); break;
          case AggKind::kCount:
          case AggKind::kFirstInt: break;  // handled above
        }
      }
      schema.push_back({aggs[a].as, DataType::kDouble});
      cols.emplace_back(std::move(v));
    }
  }
  return Table::make(std::move(schema), std::move(cols));
}

Result<Table> group_by_multi(const Table& in, const std::vector<std::string>& keys,
                             const std::vector<AggSpec>& aggs) {
  if (keys.empty()) return Status::invalid_argument("group_by_multi needs keys");
  if (keys.size() == 1) return reference::group_by(in, keys[0], aggs);

  std::vector<ColumnSpan<std::int64_t>> key_cols;
  for (const std::string& k : keys) {
    DITTO_ASSIGN_OR_RETURN(const Column* cp, in.checked_column(k));
    if (cp->type() != DataType::kInt64) {
      return Status::invalid_argument("group_by_multi keys must be int64");
    }
    key_cols.push_back(cp->int_span());
  }

  // Composite key -> representative row index; grouping by map over key
  // tuples keeps exactness for any value range (no hash packing).
  std::map<std::vector<std::int64_t>, std::vector<std::size_t>> groups;
  std::vector<std::int64_t> tuple(keys.size());
  for (std::size_t r = 0; r < in.num_rows(); ++r) {
    for (std::size_t k = 0; k < keys.size(); ++k) tuple[k] = key_cols[k][r];
    groups[tuple].push_back(r);
  }

  // Build output: key columns then aggregates (delegating per-group
  // work to the single-key machinery via take()+group_by on a constant
  // key would be wasteful; aggregate directly).
  Schema schema;
  for (const std::string& k : keys) schema.push_back({k, DataType::kInt64});
  std::vector<std::vector<std::int64_t>> key_out(keys.size());

  struct AggOut {
    std::vector<double> d;
    std::vector<std::int64_t> i;
  };
  std::vector<AggOut> agg_out(aggs.size());

  for (const auto& [key_tuple, rows] : groups) {
    for (std::size_t k = 0; k < keys.size(); ++k) key_out[k].push_back(key_tuple[k]);
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const AggSpec& spec = aggs[a];
      if (spec.kind == AggKind::kCount) {
        agg_out[a].i.push_back(static_cast<std::int64_t>(rows.size()));
        continue;
      }
      DITTO_ASSIGN_OR_RETURN(const Column* colp, in.checked_column(spec.column));
      const Column& col = *colp;
      if (spec.kind == AggKind::kFirstInt) {
        if (col.type() != DataType::kInt64) {
          return Status::invalid_argument("first-int aggregate needs an int64 column");
        }
        agg_out[a].i.push_back(col.int_at(rows.front()));
        continue;
      }
      double sum = 0, mn = std::numeric_limits<double>::infinity(), mx = -mn;
      for (std::size_t r : rows) {
        double v = 0;
        switch (col.type()) {
          case DataType::kInt64: v = static_cast<double>(col.int_at(r)); break;
          case DataType::kDouble: v = col.double_at(r); break;
          case DataType::kString:
            return Status::invalid_argument("cannot aggregate string column");
        }
        sum += v;
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      switch (spec.kind) {
        case AggKind::kSum: agg_out[a].d.push_back(sum); break;
        case AggKind::kMin: agg_out[a].d.push_back(mn); break;
        case AggKind::kMax: agg_out[a].d.push_back(mx); break;
        case AggKind::kAvg:
          agg_out[a].d.push_back(sum / static_cast<double>(rows.size()));
          break;
        case AggKind::kCount:
        case AggKind::kFirstInt: break;  // handled above
      }
    }
  }

  std::vector<Column> columns;
  for (auto& k : key_out) columns.emplace_back(std::move(k));
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const bool is_int = aggs[a].kind == AggKind::kCount || aggs[a].kind == AggKind::kFirstInt;
    schema.push_back({aggs[a].as, is_int ? DataType::kInt64 : DataType::kDouble});
    if (is_int) {
      columns.emplace_back(std::move(agg_out[a].i));
    } else {
      columns.emplace_back(std::move(agg_out[a].d));
    }
  }
  return Table::make(std::move(schema), std::move(columns));
}

Result<Table> top_k_by_int(const Table& in, const std::string& col, std::size_t k,
                           bool descending) {
  DITTO_ASSIGN_OR_RETURN(Table sorted, sort_by_int(in, col, !descending));
  return limit(sorted, k);
}

}  // namespace reference

}  // namespace ditto::exec
