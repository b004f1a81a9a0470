// Row-at-a-time reference implementations of the engine's hot
// operators: the bit-identity oracle for the kernel-equivalence corpus
// (tests/exec/kernels_test.cpp) and for bench_engine_micro's gates.
// Semantics are identical to the dispatching operators in
// exec/operators.h — including error statuses, output schemas and row
// order — just single-threaded and built on std:: containers.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/operators.h"
#include "exec/table.h"

namespace ditto::exec::reference {

Result<Table> filter_cols(const Table& in, const std::vector<ColumnPred>& preds);
Result<Table> hash_join(const Table& left, const std::string& left_key, const Table& right,
                        const std::string& right_key, JoinKind kind = JoinKind::kInner);
Result<Table> group_by(const Table& in, const std::string& key,
                       const std::vector<AggSpec>& aggs);

}  // namespace ditto::exec::reference
