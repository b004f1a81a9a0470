// Partitioners: split a table into n partitions for exchange.
//
// All row-routing partitioners run a single count-then-scatter pass:
// one pass computes each row's partition and per-chunk histograms, an
// exclusive scan turns the histograms into write cursors, and one
// scatter pass places every value directly into exact-size output
// vectors. No per-row push_back, no index vectors, no realloc. When a
// ThreadPool is supplied, both passes run chunk-parallel and write
// disjoint output ranges, so no locks are needed and row order within
// each partition is preserved.
//
// The plan/scatter machinery is exposed (not just the table-level
// partitioners) because the operator kernels reuse it: radix group-by,
// key-range (dense-key) group-by and partitioned hash join route rows
// with the same count-then-scatter pass, and the vectorized filter
// gathers selected rows through the same uninitialized-buffer move path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/table.h"

namespace ditto {
class ThreadPool;
}

namespace ditto::exec {

/// The stable 64-bit mix (SplitMix64 finalizer) behind hash_partition
/// and the kernels' radix routing and hash tables. Inline because it
/// runs once per row on every hashed path. Its values are a contract:
/// exchange routing and co-partitioned tables depend on them.
inline std::uint64_t stable_hash64(std::int64_t key) {
  std::uint64_t x = static_cast<std::uint64_t>(key) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Rows per chunk for chunk-parallel passes. Tables at or below this
/// size always take the serial path; larger ones parallelize
/// chunk-per-task when a pool is given.
inline constexpr std::size_t kScatterChunkRows = 64 * 1024;

/// Routing and placement state shared by the count and scatter passes.
/// Row order within each partition is the original row order (the
/// scatter is stable), which is what lets the operator kernels stay
/// bit-identical to their row-at-a-time references.
struct ScatterPlan {
  std::size_t rows = 0;
  std::size_t parts = 0;
  std::size_t chunks = 1;
  std::size_t chunk_rows = kScatterChunkRows;
  std::vector<std::uint32_t> part_of;    // rows entries: routing decision
  std::vector<std::size_t> counts;       // parts entries: partition sizes
  std::vector<std::size_t> base;         // chunks x parts: first write slot
  std::vector<std::size_t> part_start;   // parts+1 entries: global layout
};

/// Runs `body(chunk)` for chunks [0, chunks); chunk-parallel on `pool`
/// when given, serial otherwise, and serial when called from one of
/// `pool`'s own workers (nested calls cannot deadlock the pool). Blocks
/// until every chunk finished. Bodies must write disjoint state (the
/// caller's contract).
void run_chunked(std::size_t chunks, ThreadPool* pool,
                 const std::function<void(std::size_t)>& body);

/// Count pass + exclusive scan for routing by stable_hash64(key) % parts
/// (the exchange-compatible routing used by hash_partition).
ScatterPlan make_hash_plan(ColumnSpan<std::int64_t> keys, std::size_t parts,
                           ThreadPool* pool);

/// Same, but routing by stable_hash64(key) & (parts - 1). `parts` must
/// be a power of two. This is the kernels' radix routing: cheaper than
/// the modulo and free to pick any power-of-two fanout.
ScatterPlan make_radix_plan(ColumnSpan<std::int64_t> keys, std::size_t parts,
                            ThreadPool* pool);

/// Key-range routing for dense keys: row r goes to partition
/// (key[r] - lo) >> shift, computed in unsigned arithmetic. Partition q
/// then holds exactly the keys in [lo + q*2^shift, lo + (q+1)*2^shift),
/// so the partitions are in key order. Every key must lie in
/// [lo, lo + parts*2^shift).
ScatterPlan make_key_range_plan(ColumnSpan<std::int64_t> keys, std::int64_t lo,
                                unsigned shift, std::size_t parts, ThreadPool* pool);

/// Scatter pass over row INDICES: returns the partition-major array of
/// original row ids (partition q occupies [part_start[q], part_start[q+1])
/// and keeps original row order). The kernels aggregate or build hash
/// tables per partition straight off this array without materializing
/// partitioned tables.
std::vector<std::uint32_t> partitioned_row_indices(const ScatterPlan& plan,
                                                   ThreadPool* pool);

/// Scatter pass over VALUES: the partition-major copy of one column
/// (same layout as partitioned_row_indices — partition q occupies
/// [part_start[q], part_start[q+1]) in original row order). Reads are
/// sequential and writes stream per partition, so this is much cheaper
/// than gathering through a row-id permutation when the consumer scans
/// whole partitions — the radix group-by aggregates straight off these
/// arrays with every per-partition access cache-resident.
std::vector<std::int64_t> partitioned_values(const ScatterPlan& plan,
                                             ColumnSpan<std::int64_t> vals,
                                             ThreadPool* pool);
std::vector<double> partitioned_values(const ScatterPlan& plan, ColumnSpan<double> vals,
                                       ThreadPool* pool);

/// Gathers `n` rows of `in` (in the given order) into a new table
/// through the uninitialized-buffer move path: every fixed-width column
/// lands in one exact-size buffer written once (no zero-fill), columns
/// borrow the buffer, and the copy loop fuses all fixed-width columns
/// into a single row sweep. Chunk-parallel over output rows when a pool
/// is given. Row indices must be < in.num_rows().
Table gather_rows(const Table& in, const std::uint32_t* rows, std::size_t n,
                  ThreadPool* pool = nullptr);

/// Hash-partition by an int64 key column: row r goes to partition
/// hash(key[r]) % n. Deterministic across runs and platforms (the pool
/// only changes who does the work, never the routing or row order).
Result<std::vector<Table>> hash_partition(const Table& in, const std::string& key,
                                          std::size_t n, ThreadPool* pool = nullptr);

/// Contiguous range split, one partition at a time: partition `i` of `n`
/// holds rows [i*rows/n, (i+1)*rows/n), without copying: int64 and
/// double columns borrow `src`'s memory (with `src` as the owner, so the
/// slice stays valid after the caller drops its own reference); string
/// columns are copied as Table::slice does. This is what a scan task
/// uses — it costs O(columns), not O(rows).
Table range_slice(const std::shared_ptr<const Table>& src, std::size_t i, std::size_t n);

}  // namespace ditto::exec
