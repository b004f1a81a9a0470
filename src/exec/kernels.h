// Columnar multi-core operator kernels.
//
// The hot operators — group-by, hash join, filter — are implemented
// here as chunk/partition-parallel kernels over borrowed fixed-width
// columns, reusing the ScatterPlan count-then-scatter machinery from
// partition.{h,cpp}. Every kernel is required to be bit-identical to
// the row-at-a-time oracle in tests/support/reference.h — see
// tests/exec/kernels_test.cpp and the bench_engine_micro gates.
//
// Bit-identity argument, in one place:
//  - Every group-by path gives each group one accumulator that sees
//    the group's rows in original row order and folds them with the
//    reference's expressions (FP sums add in the same order). Radix
//    and key-range group-by route every row of one key to one
//    partition, and the scatter preserves row order within a
//    partition; the dense paths index groups by key - lo instead of
//    hashing, which changes who finds the group, not the fold.
//  - Output is in ascending key order on every path: the hash paths
//    sort (serial) or sort per partition and heap-merge (radix); the
//    dense paths scan their slot arrays, which are in key order, and
//    key-range partitions concatenate in key order.
//  - The join builds per-partition tables by appending right rows in
//    ascending order and probes left rows in order, reproducing the
//    documented output order (left-row major, duplicate matches by
//    ascending right row). Semi and anti joins keep or drop each left
//    row in order; over a dense build domain they test a membership
//    bit instead of probing a table.
//  - The filter evaluates predicates into a selection mask whose
//    gather preserves row order; the mask itself is order-free.
//
// Thread-pool contract: every kernel takes an optional ThreadPool*.
// nullptr means "consult task_compute_pool()", the thread-local set by
// the engine around each task body (the process-wide pure-compute pool
// — never a bounded server pool, so kernels can block on their sub-work
// without deadlocking task scheduling). Kernel sub-work never submits to
// the pool from a pool thread: run_chunked runs inline there.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/operators.h"
#include "exec/table.h"

namespace ditto {
class ThreadPool;
}

namespace ditto::exec {

// ---------------------------------------------------------------------------
// Compute-pool plumbing.

/// The pure-compute pool the engine granted the current task (nullptr
/// outside a task, or when the engine runs without one). Operators use
/// it when their explicit pool argument is nullptr.
ThreadPool* task_compute_pool();

/// RAII setter for task_compute_pool(); the engine wraps each stage
/// function invocation in one of these.
class ScopedComputePool {
 public:
  explicit ScopedComputePool(ThreadPool* pool);
  ~ScopedComputePool();
  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

 private:
  ThreadPool* prev_;
};

// ---------------------------------------------------------------------------
// Per-kernel wall-time accounting (thread-local, entry-point only:
// nested operator calls fold into the outermost kernel's bucket).

struct KernelSeconds {
  double group_by = 0.0;
  double join = 0.0;
  double filter = 0.0;

  double total() const { return group_by + join + filter; }
  bool any() const { return total() > 0.0; }
};

/// Zeroes the calling thread's kernel-time accumulator. The engine
/// calls this before each task attempt.
void reset_kernel_seconds();

/// The calling thread's accumulated kernel time since the last reset.
KernelSeconds current_kernel_seconds();

namespace detail {

/// RAII scope accumulating wall time into one KernelSeconds bucket.
/// Only the outermost scope on a thread records (nested operator calls
/// fold into the entry-point's bucket). Placed at every dispatching
/// operator entry point in operators.cpp.
class KernelTimer {
 public:
  explicit KernelTimer(double KernelSeconds::*field);
  ~KernelTimer();
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  double KernelSeconds::*field_;
  std::chrono::steady_clock::time_point start_;
  bool outer_;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Key domains and strategy picks (exposed so tests can pin them).
//
// Every key the engine's queries group or semi-join on is a dense
// surrogate key (order, date, site and warehouse ids, dim ids from 0).
// For such keys a direct-address table indexed by key - lo replaces
// the hash table, and its slot order is key order. The kernels pick
// the path from one min/max pass over the key column, against the
// fixed constants below; sparse keys keep the hash paths.

/// The closed range [lo, hi] of a key column.
struct KeyRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  /// hi - lo + 1, the slots a direct-address table needs: computed in
  /// unsigned arithmetic, saturating at UINT64_MAX for the full int64
  /// range, and 0 for an empty column.
  std::uint64_t span = 0;
};

/// One min/max pass (chunk-parallel on `pool` for large columns).
KeyRange key_range(ColumnSpan<std::int64_t> keys, ThreadPool* pool = nullptr);

enum class GroupByStrategy {
  kSerialFlat,        ///< one flat hash table, one thread (small inputs)
  kRadixPartitioned,  ///< ScatterPlan radix route + per-partition tables;
                      ///< picked for every large sparse-key input — with
                      ///< a pool the partitions aggregate in parallel,
                      ///< without one the value scatter still pays for
                      ///< itself by keeping per-partition state
                      ///< cache-resident
  kDenseSerial,       ///< one slot array indexed by key - lo, one thread
  kDensePartitioned,  ///< ScatterPlan key-range route ((key - lo) >> shift)
                      ///< + per-partition slot arrays; partitions
                      ///< concatenate in key order, no merge
};

/// Tables at or below this many rows always take a serial path.
inline constexpr std::size_t kParallelMinRows = 32 * 1024;

/// Dense-key inputs above this many rows take the key-range-partitioned
/// path, so large dense group-bys stay parallel.
inline constexpr std::size_t kDenseParallelMinRows = 8 * kParallelMinRows;

/// A group-by over `rows` rows takes a dense path when its key span is
/// at most 4 * rows + kDenseGroupSlack slots and at most
/// kDenseGroupMaxSpan: the slot array stays proportional to the input
/// and bounded.
inline constexpr std::uint64_t kDenseGroupSlack = 4096;
inline constexpr std::uint64_t kDenseGroupMaxSpan = std::uint64_t{1} << 22;

/// Semi and anti joins test a membership bitset instead of probing a
/// hash table when the build side's key span is at most this many bits
/// (128 KiB).
inline constexpr std::uint64_t kDenseMembershipMaxSpan = std::uint64_t{1} << 20;

/// The pick group_by_kernel makes for `rows` rows whose key column has
/// `key_span` (KeyRange::span).
GroupByStrategy pick_group_by_strategy(std::size_t rows, std::uint64_t key_span);

enum class JoinBuildStrategy {
  kHashTable,  ///< radix-partitioned flat hash tables (inner joins, sparse keys)
  kDenseBits,  ///< one membership bit per key in [lo, hi] (semi/anti joins)
};

/// The build a join of `kind` makes over a build side with `key_span`.
JoinBuildStrategy pick_join_build_strategy(JoinKind kind, std::uint64_t key_span);

// ---------------------------------------------------------------------------
// Kernels. Entry points mirror the operators.h contracts exactly
// (schema, row order, error statuses); operators.cpp dispatches here.

Result<Table> group_by_kernel(const Table& in, const std::string& key,
                              const std::vector<AggSpec>& aggs, ThreadPool* pool);

Result<Table> hash_join_kernel(const Table& left, const std::string& left_key,
                               const Table& right, const std::string& right_key,
                               JoinKind kind, ThreadPool* pool);

/// Fused multi-predicate columnar filter: evaluates each predicate
/// column-at-a-time into a shared selection mask (AND) and gathers the
/// surviving rows through the uninitialized-buffer move path.
Result<Table> filter_kernel(const Table& in, const std::vector<ColumnPred>& preds,
                            ThreadPool* pool);

// ---------------------------------------------------------------------------
// Streaming kernels (pipelined shuffle, paper §4.5). A chunk source is
// a pull iterator: each call blocks for and returns the next input
// chunk in deterministic (producer-major, chunk-seq) order; nullopt =
// stream drained. Each streaming kernel is bit-identical to running
// its materialized counterpart on the concatenation of every chunk —
// that contract is what keeps pipelined and wave execution
// interchangeable (and is pinned by the fault-storm identity tests).

/// Pull-based chunk iterator handed to streaming consumers.
using TableChunkFn = std::function<Result<std::optional<Table>>()>;

/// Drains a chunk stream into one table (the gather-on-last-chunk
/// fallback for blocking consumers like group-by builds). Errors on an
/// empty stream — Exchange always publishes at least one (possibly
/// zero-row) chunk, so a drained-empty stream means a protocol bug.
Result<Table> gather_chunks(const TableChunkFn& next);

/// filter_kernel applied per chunk; filtering preserves row order, so
/// the concatenated survivors equal filtering the concatenated input.
Result<Table> filter_stream(const TableChunkFn& next, const std::vector<ColumnPred>& preds,
                            ThreadPool* pool);

/// Hash join with a streaming probe side: builds the right side (hash
/// tables or membership bits, as hash_join_kernel would) ONCE, then
/// probes each left chunk as it arrives and concatenates the per-chunk
/// results. Probe chunks are ascending left-row ranges
/// and hash_join_kernel's output is left-row major, so the concat is
/// bit-identical to the materialized join. The build side must be a
/// complete table (it is blocking by nature — gather_chunks it first).
Result<Table> hash_join_stream(const TableChunkFn& next_left, const std::string& left_key,
                               const Table& right, const std::string& right_key,
                               JoinKind kind, ThreadPool* pool);

}  // namespace ditto::exec
