#include "support/reference.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace ditto::exec {

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

}  // namespace reference

}  // namespace ditto::exec
