#include "exec/kernels.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "common/thread_pool.h"
#include "exec/partition.h"

namespace ditto::exec {

// ---------------------------------------------------------------------------
// Compute-pool plumbing.

namespace {
thread_local ThreadPool* tl_compute_pool = nullptr;
thread_local KernelSeconds tl_kernel_seconds;
thread_local int tl_kernel_depth = 0;
}  // namespace

ThreadPool* task_compute_pool() { return tl_compute_pool; }

ScopedComputePool::ScopedComputePool(ThreadPool* pool) : prev_(tl_compute_pool) {
  tl_compute_pool = pool;
}

ScopedComputePool::~ScopedComputePool() { tl_compute_pool = prev_; }

void reset_kernel_seconds() { tl_kernel_seconds = KernelSeconds{}; }

KernelSeconds current_kernel_seconds() { return tl_kernel_seconds; }

namespace detail {

KernelTimer::KernelTimer(double KernelSeconds::*field)
    : field_(field), outer_(tl_kernel_depth++ == 0) {
  if (outer_) start_ = std::chrono::steady_clock::now();
}

KernelTimer::~KernelTimer() {
  --tl_kernel_depth;
  if (!outer_) return;  // nested operator call: folds into the outer bucket
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  tl_kernel_seconds.*field_ +=
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Flat open-addressing tables. Linear probing over power-of-two
// capacity; the probe start uses the TOP bits of stable_hash64 so slot
// placement stays uncorrelated with the radix routing (which consumes
// the low bits).

namespace {

constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// int64 key -> dense group id (0, 1, 2, ... in first-seen order).
class FlatMap {
 public:
  explicit FlatMap(std::size_t expected_groups) {
    rehash(next_pow2(std::max<std::size_t>(16, expected_groups * 2)));
  }

  std::uint32_t find_or_insert(std::int64_t key, bool& inserted) {
    if ((n_ + 1) * 10 > cap_ * 7) rehash(cap_ * 2);
    const std::uint64_t h = stable_hash64(key);
    std::size_t i = h >> shift_;
    for (;;) {
      if (slot_group_[i] == kNoGroup) {
        slot_key_[i] = key;
        slot_group_[i] = n_;
        group_key_.push_back(key);
        inserted = true;
        return n_++;
      }
      if (slot_key_[i] == key) {
        inserted = false;
        return slot_group_[i];
      }
      i = (i + 1) & mask_;
    }
  }

  std::uint32_t size() const { return n_; }
  std::int64_t key_of(std::uint32_t g) const { return group_key_[g]; }

 private:
  void rehash(std::size_t cap) {
    cap_ = cap;
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    slot_key_.assign(cap, 0);
    slot_group_.assign(cap, kNoGroup);
    for (std::uint32_t g = 0; g < n_; ++g) {
      std::size_t i = stable_hash64(group_key_[g]) >> shift_;
      while (slot_group_[i] != kNoGroup) i = (i + 1) & mask_;
      slot_key_[i] = group_key_[g];
      slot_group_[i] = g;
    }
  }

  std::vector<std::int64_t> slot_key_;
  std::vector<std::uint32_t> slot_group_;
  std::vector<std::int64_t> group_key_;  // group id -> key
  std::size_t cap_ = 0, mask_ = 0;
  unsigned shift_ = 64;
  std::uint32_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Shared aggregation machinery. Every group-by path resolves rows to
// dense group ids, folds the aggregates column at a time, and emits
// straight from the fold arrays. Bit-identity depends on each group's
// accumulator seeing the reference's value sequence AND folding it with
// the reference's expressions.

struct AggInput {
  ColumnSpan<std::int64_t> ints;
  ColumnSpan<double> doubles;
  bool is_int = false;
};

Result<std::vector<AggInput>> resolve_agg_inputs(const Table& in,
                                                 const std::vector<AggSpec>& aggs) {
  std::vector<AggInput> inputs(aggs.size());
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
  // After every input resolved, as the reference fails: a missing
  // column reports NOT_FOUND before a first-int type error.
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == AggKind::kFirstInt && !inputs[a].is_int) {
      return Status::invalid_argument("first-int aggregate needs an int64 column");
    }
  }
  return inputs;
}

/// The AggInputs of rows [lo, lo + len) of `inputs`.
std::vector<AggInput> slice_agg_inputs(const std::vector<AggInput>& inputs, std::size_t lo,
                                       std::size_t len) {
  std::vector<AggInput> out(inputs.size());
  for (std::size_t a = 0; a < inputs.size(); ++a) {
    out[a].is_int = inputs[a].is_int;
    if (!inputs[a].ints.empty()) {
      out[a].ints = ColumnSpan<std::int64_t>(inputs[a].ints.data() + lo, len);
    }
    if (!inputs[a].doubles.empty()) {
      out[a].doubles = ColumnSpan<double>(inputs[a].doubles.data() + lo, len);
    }
  }
  return out;
}

/// Compact struct-of-arrays accumulators: one dense per-group array
/// per aggregate that needs one (plus shared counts). This is what the
/// columnar fold writes and what every path emits straight from.
struct FoldedAggs {
  std::vector<std::int64_t> counts;              ///< rows per group
  std::vector<std::vector<double>> vals;         ///< [agg] sum/min/max per group
  std::vector<std::vector<std::int64_t>> first;  ///< [agg] first int per group
};

/// Column-at-a-time fold — the vectorized half of the group-by kernel.
/// Pass 1 (the caller) resolved each fold position j to a dense group
/// id gid[j]; this runs one specialized tight loop per (aggregate
/// kind, input type) over compact per-group arrays instead of a
/// per-row switch. `row_at(j)` maps a fold position to its row in
/// `inputs` (identity when the caller already scattered the value
/// columns partition-major). Each group still sees its values in
/// exactly the reference's row order and folds them with the same
/// expressions, so sums, mins and maxes are bit-identical.
template <typename RowAt>
FoldedAggs fold_aggs_columnar(const std::vector<AggSpec>& aggs,
                              const std::vector<AggInput>& inputs,
                              const std::vector<std::uint32_t>& gid,
                              const std::vector<std::uint32_t>& first_pos, RowAt row_at) {
  const std::size_t groups = first_pos.size();
  const std::size_t naggs = aggs.size();
  const std::size_t n = gid.size();
  const std::uint32_t* g = gid.data();

  FoldedAggs f;
  f.counts.assign(groups, 0);
  for (std::size_t j = 0; j < n; ++j) ++f.counts[g[j]];
  f.vals.resize(naggs);
  f.first.resize(naggs);

  for (std::size_t a = 0; a < naggs; ++a) {
    switch (aggs[a].kind) {
      case AggKind::kCount:
        break;
      case AggKind::kFirstInt:
        // The group's first row is where pass 1 inserted it, so this
        // is O(groups), not O(rows).
        f.first[a].resize(groups);
        for (std::size_t i = 0; i < groups; ++i) {
          f.first[a][i] = inputs[a].ints[row_at(first_pos[i])];
        }
        break;
      case AggKind::kSum:
      case AggKind::kAvg: {
        std::vector<double>& fold = f.vals[a];
        fold.assign(groups, 0.0);
        if (inputs[a].is_int) {
          const ColumnSpan<std::int64_t> v = inputs[a].ints;
          for (std::size_t j = 0; j < n; ++j) {
            fold[g[j]] += static_cast<double>(v[row_at(j)]);
          }
        } else {
          const ColumnSpan<double> v = inputs[a].doubles;
          for (std::size_t j = 0; j < n; ++j) fold[g[j]] += v[row_at(j)];
        }
        break;
      }
      case AggKind::kMin: {
        std::vector<double>& fold = f.vals[a];
        fold.assign(groups, std::numeric_limits<double>::infinity());
        if (inputs[a].is_int) {
          const ColumnSpan<std::int64_t> v = inputs[a].ints;
          for (std::size_t j = 0; j < n; ++j) {
            fold[g[j]] = std::min(fold[g[j]], static_cast<double>(v[row_at(j)]));
          }
        } else {
          const ColumnSpan<double> v = inputs[a].doubles;
          for (std::size_t j = 0; j < n; ++j) {
            fold[g[j]] = std::min(fold[g[j]], v[row_at(j)]);
          }
        }
        break;
      }
      case AggKind::kMax: {
        std::vector<double>& fold = f.vals[a];
        fold.assign(groups, -std::numeric_limits<double>::infinity());
        if (inputs[a].is_int) {
          const ColumnSpan<std::int64_t> v = inputs[a].ints;
          for (std::size_t j = 0; j < n; ++j) {
            fold[g[j]] = std::max(fold[g[j]], static_cast<double>(v[row_at(j)]));
          }
        } else {
          const ColumnSpan<double> v = inputs[a].doubles;
          for (std::size_t j = 0; j < n; ++j) {
            fold[g[j]] = std::max(fold[g[j]], v[row_at(j)]);
          }
        }
        break;
      }
    }
  }
  return f;
}

constexpr auto kIdentityRow = [](std::size_t j) { return j; };

/// Appends one column per aggregate to `schema`/`cols`. Output row i
/// reads group group_of(i) of the folds fold_of(i); column types and
/// value expressions are the reference's (avg = sum / count).
template <typename FoldOf, typename GroupOf>
void emit_agg_columns(const std::vector<AggSpec>& aggs, std::size_t total, FoldOf fold_of,
                      GroupOf group_of, Schema& schema, std::vector<Column>& cols) {
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const AggKind kind = aggs[a].kind;
    if (kind == AggKind::kCount || kind == AggKind::kFirstInt) {
      std::vector<std::int64_t> v(total);
      if (kind == AggKind::kCount) {
        for (std::size_t i = 0; i < total; ++i) v[i] = fold_of(i).counts[group_of(i)];
      } else {
        for (std::size_t i = 0; i < total; ++i) v[i] = fold_of(i).first[a][group_of(i)];
      }
      schema.push_back({aggs[a].as, DataType::kInt64});
      cols.emplace_back(std::move(v));
    } else {
      std::vector<double> v(total);
      if (kind == AggKind::kAvg) {
        for (std::size_t i = 0; i < total; ++i) {
          const FoldedAggs& f = fold_of(i);
          v[i] = f.vals[a][group_of(i)] / static_cast<double>(f.counts[group_of(i)]);
        }
      } else {
        for (std::size_t i = 0; i < total; ++i) v[i] = fold_of(i).vals[a][group_of(i)];
      }
      schema.push_back({aggs[a].as, DataType::kDouble});
      cols.emplace_back(std::move(v));
    }
  }
}

/// One input's (or one partition's) groups, folded, in key order.
struct GroupSet {
  FoldedAggs folds;
  std::vector<std::uint32_t> order;  ///< group ids in ascending key order
  std::vector<std::int64_t> keys;    ///< the groups' keys, in that order
};

/// Hash grouping: a flat table assigns group ids in first-seen order;
/// the (small, cache-hot) group set is then sorted by key.
GroupSet hash_groups(const std::int64_t* keys, std::size_t n, const std::vector<AggSpec>& aggs,
                     const std::vector<AggInput>& inputs) {
  // Pre-size for high cardinality: a rehash chain on distinct-heavy
  // inputs costs more than the over-allocation on repeat-heavy ones.
  FlatMap map(std::max<std::size_t>(256, n / 4));
  std::vector<std::uint32_t> gid(n);
  std::vector<std::uint32_t> first_pos;
  for (std::size_t r = 0; r < n; ++r) {
    bool inserted = false;
    const std::uint32_t id = map.find_or_insert(keys[r], inserted);
    if (inserted) first_pos.push_back(static_cast<std::uint32_t>(r));
    gid[r] = id;
  }
  GroupSet g;
  g.folds = fold_aggs_columnar(aggs, inputs, gid, first_pos, kIdentityRow);
  g.order.resize(map.size());
  for (std::uint32_t i = 0; i < map.size(); ++i) g.order[i] = i;
  std::sort(g.order.begin(), g.order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return map.key_of(a) < map.key_of(b); });
  g.keys.resize(g.order.size());
  for (std::size_t i = 0; i < g.order.size(); ++i) g.keys[i] = map.key_of(g.order[i]);
  return g;
}

/// Dense grouping over keys in [lo, lo + slots): slot[key - lo] holds
/// the key's group id, assigned in first-seen order (the perfect-hash
/// aggregate). No hashing, and one scan of the slot array yields the
/// groups in key order, so nothing sorts.
GroupSet dense_groups(const std::int64_t* keys, std::size_t n, std::int64_t lo,
                      std::uint64_t slots, const std::vector<AggSpec>& aggs,
                      const std::vector<AggInput>& inputs) {
  const std::uint64_t base = static_cast<std::uint64_t>(lo);
  std::vector<std::uint32_t> slot(slots, kNoGroup);
  std::vector<std::uint32_t> gid(n);
  std::vector<std::uint32_t> first_pos;
  for (std::size_t r = 0; r < n; ++r) {
    std::uint32_t& s = slot[static_cast<std::uint64_t>(keys[r]) - base];
    if (s == kNoGroup) {
      s = static_cast<std::uint32_t>(first_pos.size());
      first_pos.push_back(static_cast<std::uint32_t>(r));
    }
    gid[r] = s;
  }
  GroupSet g;
  g.folds = fold_aggs_columnar(aggs, inputs, gid, first_pos, kIdentityRow);
  g.order.reserve(first_pos.size());
  g.keys.reserve(first_pos.size());
  for (std::uint64_t i = 0; i < slots; ++i) {
    if (slot[i] == kNoGroup) continue;
    g.order.push_back(slot[i]);
    g.keys.push_back(static_cast<std::int64_t>(base + i));
  }
  return g;
}

/// A one-GroupSet output (the serial paths).
Result<Table> emit_group_set(const std::string& key, const std::vector<AggSpec>& aggs,
                             GroupSet&& g) {
  const std::size_t total = g.keys.size();
  Schema schema{{key, DataType::kInt64}};
  std::vector<Column> cols;
  cols.emplace_back(std::move(g.keys));
  emit_agg_columns(
      aggs, total, [&](std::size_t) -> const FoldedAggs& { return g.folds; },
      [&](std::size_t i) { return g.order[i]; }, schema, cols);
  return Table::make(std::move(schema), std::move(cols));
}

/// A partitioned output: row i is group merged[i] & 0xffffffff of
/// partition merged[i] >> 32, with key out_keys[i].
Result<Table> emit_partitioned(const std::string& key, const std::vector<AggSpec>& aggs,
                               const std::vector<GroupSet>& locals,
                               std::vector<std::int64_t>&& out_keys,
                               const std::vector<std::uint64_t>& merged) {
  const std::size_t total = out_keys.size();
  Schema schema{{key, DataType::kInt64}};
  std::vector<Column> cols;
  cols.emplace_back(std::move(out_keys));
  emit_agg_columns(
      aggs, total,
      [&](std::size_t i) -> const FoldedAggs& { return locals[merged[i] >> 32].folds; },
      [&](std::size_t i) { return static_cast<std::size_t>(merged[i] & 0xffffffffu); }, schema,
      cols);
  return Table::make(std::move(schema), std::move(cols));
}

/// Partition-major copies of the key and every aggregate input column
/// (deduped by source buffer). The scatter reads sequentially and
/// streams into per-partition ranges; every per-partition pass then
/// touches only dense, partition-local data.
struct ScatteredInput {
  std::vector<std::int64_t> keys;
  std::vector<AggInput> inputs;  ///< views into the buffers below
  std::vector<std::vector<std::int64_t>> ints;
  std::vector<std::vector<double>> doubles;
};

ScatteredInput scatter_group_input(const ScatterPlan& plan, ColumnSpan<std::int64_t> keys,
                                   const std::vector<AggSpec>& aggs,
                                   const std::vector<AggInput>& inputs, ThreadPool* pool) {
  const std::size_t n = keys.size();
  ScatteredInput s;
  s.keys = partitioned_values(plan, keys, pool);
  s.inputs.resize(aggs.size());
  std::vector<const std::int64_t*> int_srcs;
  std::vector<const double*> dbl_srcs;
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == AggKind::kCount) continue;
    s.inputs[a].is_int = inputs[a].is_int;
    if (inputs[a].is_int) {
      const std::int64_t* src = inputs[a].ints.data();
      std::size_t i = std::find(int_srcs.begin(), int_srcs.end(), src) - int_srcs.begin();
      if (i == int_srcs.size()) {
        int_srcs.push_back(src);
        s.ints.push_back(partitioned_values(plan, inputs[a].ints, pool));
      }
      s.inputs[a].ints = ColumnSpan<std::int64_t>(s.ints[i].data(), n);
    } else {
      const double* src = inputs[a].doubles.data();
      std::size_t i = std::find(dbl_srcs.begin(), dbl_srcs.end(), src) - dbl_srcs.begin();
      if (i == dbl_srcs.size()) {
        dbl_srcs.push_back(src);
        s.doubles.push_back(partitioned_values(plan, inputs[a].doubles, pool));
      }
      s.inputs[a].doubles = ColumnSpan<double>(s.doubles[i].data(), n);
    }
  }
  return s;
}

std::size_t pool_width(ThreadPool* pool) { return pool ? pool->size() : 0; }

/// Radix fanout for partition-parallel kernels: a few partitions per
/// pool thread for balance, power of two, capped to keep per-partition
/// fixed costs negligible.
std::size_t radix_fanout(std::size_t width) {
  return next_pow2(std::min<std::size_t>(64, std::max<std::size_t>(8, width * 4)));
}

/// Partition fanout for a partitioned group-by of `rows` rows. It
/// serves two masters: enough partitions for pool balance AND
/// per-partition state (table + fold arrays) small enough to stay
/// cache-resident. ~16k rows per partition hits both — which is why
/// the partitioned paths also win with no pool at all.
std::size_t group_fanout(std::size_t rows, ThreadPool* pool) {
  return radix_fanout(std::max(pool_width(pool), rows / (16 * 1024)));
}

}  // namespace

// ---------------------------------------------------------------------------
// Key domains and strategy picks.

KeyRange key_range(ColumnSpan<std::int64_t> keys, ThreadPool* pool) {
  const std::size_t n = keys.size();
  if (n == 0) return {};
  const std::size_t chunks = (n + kScatterChunkRows - 1) / kScatterChunkRows;
  std::vector<std::int64_t> lo(chunks), hi(chunks);
  run_chunked(chunks, pool, [&](std::size_t c) {
    const std::size_t b = c * kScatterChunkRows;
    const std::size_t e = std::min(n, b + kScatterChunkRows);
    std::int64_t mn = keys[b], mx = keys[b];
    for (std::size_t r = b + 1; r < e; ++r) {
      mn = std::min(mn, keys[r]);
      mx = std::max(mx, keys[r]);
    }
    lo[c] = mn;
    hi[c] = mx;
  });
  KeyRange range;
  range.lo = *std::min_element(lo.begin(), lo.end());
  range.hi = *std::max_element(hi.begin(), hi.end());
  // Unsigned: hi - lo cannot overflow there, and only the full int64
  // range has no room for the + 1.
  const std::uint64_t width =
      static_cast<std::uint64_t>(range.hi) - static_cast<std::uint64_t>(range.lo);
  range.span = width == std::numeric_limits<std::uint64_t>::max() ? width : width + 1;
  return range;
}

GroupByStrategy pick_group_by_strategy(std::size_t rows, std::uint64_t key_span) {
  const bool dense = key_span <= kDenseGroupMaxSpan &&
                     key_span <= 4 * std::uint64_t{rows} + kDenseGroupSlack;
  if (dense) {
    return rows <= kDenseParallelMinRows ? GroupByStrategy::kDenseSerial
                                         : GroupByStrategy::kDensePartitioned;
  }
  // Radix even without a pool: on large inputs the partition pass pays
  // for itself by making every per-partition structure cache-resident.
  return rows <= kParallelMinRows ? GroupByStrategy::kSerialFlat
                                  : GroupByStrategy::kRadixPartitioned;
}

JoinBuildStrategy pick_join_build_strategy(JoinKind kind, std::uint64_t key_span) {
  return kind != JoinKind::kInner && key_span <= kDenseMembershipMaxSpan
             ? JoinBuildStrategy::kDenseBits
             : JoinBuildStrategy::kHashTable;
}

// ---------------------------------------------------------------------------
// Group-by kernel.

namespace {

/// Radix path: per-partition hash groups are sorted locally
/// (cache-hot), and the disjoint sorted key streams heap-merge into
/// global key order. No global sort.
Result<Table> group_by_radix(const std::string& key, ColumnSpan<std::int64_t> keys,
                             const std::vector<AggSpec>& aggs,
                             const std::vector<AggInput>& inputs, ThreadPool* pool) {
  const std::size_t parts = group_fanout(keys.size(), pool);
  const ScatterPlan plan = make_radix_plan(keys, parts, pool);
  const ScatteredInput scat = scatter_group_input(plan, keys, aggs, inputs, pool);

  // Aggregate each partition independently; row order within a
  // partition is the original row order, so every group accumulates
  // its values in exactly the reference's sequence.
  std::vector<GroupSet> locals(parts);
  run_chunked(parts, pool, [&](std::size_t p) {
    const std::size_t lo = plan.part_start[p];
    const std::size_t len = plan.part_start[p + 1] - lo;
    locals[p] = hash_groups(scat.keys.data() + lo, len, aggs,
                            slice_agg_inputs(scat.inputs, lo, len));
  });

  // Partitions hold disjoint key sets, each sorted: a heap merge of
  // the streams yields global key order in total x log(parts) steps.
  std::size_t total = 0;
  for (const GroupSet& l : locals) total += l.keys.size();
  struct Head {
    std::int64_t key;
    std::uint32_t part;
    std::uint32_t idx;  // position in that partition's order[]
  };
  const auto later = [](const Head& a, const Head& b) { return a.key > b.key; };
  std::vector<Head> heap;
  heap.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    if (!locals[p].keys.empty()) {
      heap.push_back({locals[p].keys[0], static_cast<std::uint32_t>(p), 0});
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);
  std::vector<std::int64_t> out_keys(total);
  std::vector<std::uint64_t> merged(total);  // (partition << 32) | group
  for (std::size_t i = 0; i < total; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head h = heap.back();
    heap.pop_back();
    out_keys[i] = h.key;
    merged[i] = (std::uint64_t{h.part} << 32) | locals[h.part].order[h.idx];
    if (++h.idx < locals[h.part].keys.size()) {
      h.key = locals[h.part].keys[h.idx];
      heap.push_back(h);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return emit_partitioned(key, aggs, locals, std::move(out_keys), merged);
}

/// Key-range path for large dense inputs: partition q holds the keys
/// [lo + q*2^shift, lo + (q+1)*2^shift), each partition groups through
/// its own slot array on the pool, and the partitions' outputs
/// concatenate in order — already global key order, so nothing merges.
Result<Table> group_by_dense_partitioned(const std::string& key, ColumnSpan<std::int64_t> keys,
                                         const KeyRange& range,
                                         const std::vector<AggSpec>& aggs,
                                         const std::vector<AggInput>& inputs,
                                         ThreadPool* pool) {
  // The smallest shift that maps the span onto at most `fanout` parts.
  const std::size_t fanout = group_fanout(keys.size(), pool);
  unsigned shift = 0;
  while (((range.span - 1) >> shift) >= fanout) ++shift;
  const std::size_t parts = static_cast<std::size_t>((range.span - 1) >> shift) + 1;
  const ScatterPlan plan = make_key_range_plan(keys, range.lo, shift, parts, pool);
  const ScatteredInput scat = scatter_group_input(plan, keys, aggs, inputs, pool);

  std::vector<GroupSet> locals(parts);
  run_chunked(parts, pool, [&](std::size_t p) {
    const std::size_t lo = plan.part_start[p];
    const std::size_t len = plan.part_start[p + 1] - lo;
    const std::uint64_t first_slot = std::uint64_t{p} << shift;
    const std::uint64_t slots = std::min(std::uint64_t{1} << shift, range.span - first_slot);
    locals[p] = dense_groups(
        scat.keys.data() + lo, len,
        static_cast<std::int64_t>(static_cast<std::uint64_t>(range.lo) + first_slot), slots,
        aggs, slice_agg_inputs(scat.inputs, lo, len));
  });

  std::size_t total = 0;
  for (const GroupSet& l : locals) total += l.keys.size();
  std::vector<std::int64_t> out_keys;
  std::vector<std::uint64_t> merged;  // (partition << 32) | group
  out_keys.reserve(total);
  merged.reserve(total);
  for (std::size_t p = 0; p < parts; ++p) {
    out_keys.insert(out_keys.end(), locals[p].keys.begin(), locals[p].keys.end());
    for (const std::uint32_t g : locals[p].order) merged.push_back((std::uint64_t{p} << 32) | g);
  }
  return emit_partitioned(key, aggs, locals, std::move(out_keys), merged);
}

}  // namespace

Result<Table> group_by_kernel(const Table& in, const std::string& key,
                              const std::vector<AggSpec>& aggs, ThreadPool* pool) {
  DITTO_ASSIGN_OR_RETURN(const Column* kp, in.checked_column(key));
  if (kp->type() != DataType::kInt64) {
    return Status::invalid_argument("group_by key must be int64");
  }
  DITTO_ASSIGN_OR_RETURN(std::vector<AggInput> inputs, resolve_agg_inputs(in, aggs));
  const ColumnSpan<std::int64_t> keys = kp->int_span();
  const KeyRange range = key_range(keys, pool);

  switch (pick_group_by_strategy(keys.size(), range.span)) {
    case GroupByStrategy::kSerialFlat:
      return emit_group_set(key, aggs, hash_groups(keys.data(), keys.size(), aggs, inputs));
    case GroupByStrategy::kRadixPartitioned:
      return group_by_radix(key, keys, aggs, inputs, pool);
    case GroupByStrategy::kDenseSerial:
      return emit_group_set(
          key, aggs, dense_groups(keys.data(), keys.size(), range.lo, range.span, aggs, inputs));
    case GroupByStrategy::kDensePartitioned:
      return group_by_dense_partitioned(key, keys, range, aggs, inputs, pool);
  }
  return Status::internal("unreachable group-by strategy");
}

// ---------------------------------------------------------------------------
// Hash join kernel.

namespace {

/// Flat hash table over one radix partition of the build (right) side.
/// Nodes append in ascending right-row order, so probing walks
/// duplicate matches exactly in the documented output order.
class JoinPart {
 public:
  void reserve(std::size_t expected_rows) {
    const std::size_t cap = next_pow2(std::max<std::size_t>(16, expected_rows * 2));
    cap_ = cap;
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    slot_key_.assign(cap, 0);
    slot_group_.assign(cap, kNoGroup);
    node_row_.reserve(expected_rows);
    node_next_.reserve(expected_rows);
  }

  void insert(std::int64_t key, std::uint32_t row) {
    if ((groups_ + 1) * 10 > cap_ * 7) grow();
    const std::uint64_t h = stable_hash64(key);
    std::size_t i = h >> shift_;
    std::uint32_t g = kNoGroup;
    for (;;) {
      if (slot_group_[i] == kNoGroup) {
        slot_key_[i] = key;
        slot_group_[i] = groups_;
        g = groups_++;
        group_key_.push_back(key);
        group_head_.push_back(kNoGroup);
        group_tail_.push_back(kNoGroup);
        break;
      }
      if (slot_key_[i] == key) {
        g = slot_group_[i];
        break;
      }
      i = (i + 1) & mask_;
    }
    const std::uint32_t node = static_cast<std::uint32_t>(node_row_.size());
    node_row_.push_back(row);
    node_next_.push_back(kNoGroup);
    if (group_head_[g] == kNoGroup) {
      group_head_[g] = node;
    } else {
      node_next_[group_tail_[g]] = node;
    }
    group_tail_[g] = node;
  }

  /// First node of the key's match chain, or kNoGroup.
  std::uint32_t find(std::int64_t key) const {
    if (cap_ == 0) return kNoGroup;
    const std::uint64_t h = stable_hash64(key);
    std::size_t i = h >> shift_;
    for (;;) {
      if (slot_group_[i] == kNoGroup) return kNoGroup;
      if (slot_key_[i] == key) return group_head_[slot_group_[i]];
      i = (i + 1) & mask_;
    }
  }

  std::uint32_t node_row(std::uint32_t node) const { return node_row_[node]; }
  std::uint32_t node_next(std::uint32_t node) const { return node_next_[node]; }

 private:
  void grow() {
    const std::size_t cap = cap_ * 2;
    cap_ = cap;
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    slot_key_.assign(cap, 0);
    slot_group_.assign(cap, kNoGroup);
    for (std::uint32_t g = 0; g < groups_; ++g) {
      std::size_t i = stable_hash64(group_key_[g]) >> shift_;
      while (slot_group_[i] != kNoGroup) i = (i + 1) & mask_;
      slot_key_[i] = group_key_[g];
      slot_group_[i] = g;
    }
  }

  std::vector<std::int64_t> slot_key_;
  std::vector<std::uint32_t> slot_group_;
  std::vector<std::int64_t> group_key_;
  std::vector<std::uint32_t> group_head_, group_tail_;
  std::vector<std::uint32_t> node_row_, node_next_;
  std::size_t cap_ = 0, mask_ = 0;
  unsigned shift_ = 64;
  std::uint32_t groups_ = 0;
};

/// Turn a selection mask into the ascending row-id list, chunk-parallel
/// (per-chunk count, exclusive scan, disjoint fill).
std::vector<std::uint32_t> selection_from_mask(const std::uint8_t* mask, std::size_t rows,
                                               ThreadPool* pool) {
  const std::size_t chunks = std::max<std::size_t>(1, (rows + kScatterChunkRows - 1) /
                                                          kScatterChunkRows);
  std::vector<std::size_t> counts(chunks, 0);
  run_chunked(chunks, pool, [&](std::size_t c) {
    const std::size_t lo = c * kScatterChunkRows;
    const std::size_t hi = std::min(rows, lo + kScatterChunkRows);
    std::size_t n = 0;
    for (std::size_t r = lo; r < hi; ++r) n += mask[r];
    counts[c] = n;
  });
  std::vector<std::size_t> offsets(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c) offsets[c + 1] = offsets[c] + counts[c];
  std::vector<std::uint32_t> out(offsets[chunks]);
  run_chunked(chunks, pool, [&](std::size_t c) {
    const std::size_t lo = c * kScatterChunkRows;
    const std::size_t hi = std::min(rows, lo + kScatterChunkRows);
    std::size_t w = offsets[c];
    for (std::size_t r = lo; r < hi; ++r) {
      if (mask[r]) out[w++] = static_cast<std::uint32_t>(r);
    }
  });
  return out;
}

}  // namespace

namespace {

/// The build phase of the hash join, factored out so hash_join_stream
/// can build once and probe many chunks. Output order is independent
/// of `parts`: rows insert in ascending right-row order either way.
struct JoinBuild {
  std::vector<JoinPart> tables;
  std::size_t parts = 1;
  std::uint64_t part_mask = 0;
  /// kDenseBits builds (semi/anti joins over a small key span) fill
  /// these instead of `tables`: bit key - lo is set iff the key is on
  /// the build side.
  bool dense = false;
  std::uint64_t lo = 0;
  std::uint64_t span = 0;
  std::vector<std::uint64_t> bits;

  /// Membership test of a kDenseBits build. A key outside [lo, hi]
  /// wraps to an offset >= span in unsigned arithmetic, so one compare
  /// rejects both sides.
  bool contains(std::int64_t key) const {
    const std::uint64_t u = static_cast<std::uint64_t>(key) - lo;
    return u < span && ((bits[u >> 6] >> (u & 63)) & 1u) != 0;
  }
};

JoinBuild make_join_build(ColumnSpan<std::int64_t> rkeys, JoinKind kind, bool parallel,
                          ThreadPool* pool) {
  JoinBuild build;
  if (kind != JoinKind::kInner) {
    const KeyRange range = key_range(rkeys, pool);
    if (pick_join_build_strategy(kind, range.span) == JoinBuildStrategy::kDenseBits) {
      build.dense = true;
      build.lo = static_cast<std::uint64_t>(range.lo);
      build.span = range.span;
      build.bits.assign((range.span + 63) / 64, 0);
      for (std::size_t r = 0; r < rkeys.size(); ++r) {
        const std::uint64_t u = static_cast<std::uint64_t>(rkeys[r]) - build.lo;
        build.bits[u >> 6] |= std::uint64_t{1} << (u & 63);
      }
      return build;
    }
  }
  build.parts = parallel ? radix_fanout(pool_width(pool)) : 1;
  build.part_mask = build.parts - 1;
  build.tables.resize(build.parts);
  std::vector<JoinPart>& tables = build.tables;
  if (build.parts == 1) {
    tables[0].reserve(rkeys.size());
    for (std::size_t r = 0; r < rkeys.size(); ++r) {
      tables[0].insert(rkeys[r], static_cast<std::uint32_t>(r));
    }
  } else {
    const ScatterPlan plan = make_radix_plan(rkeys, build.parts, pool);
    const std::vector<std::uint32_t> row_ids = partitioned_row_indices(plan, pool);
    run_chunked(build.parts, pool, [&](std::size_t p) {
      tables[p].reserve(plan.counts[p]);
      for (std::size_t i = plan.part_start[p]; i < plan.part_start[p + 1]; ++i) {
        const std::uint32_t r = row_ids[i];
        tables[p].insert(rkeys[r], r);
      }
    });
  }
  return build;
}

/// The probe phase against a prepared build. `left` may be one probe
/// chunk: its output is left-row major, so concatenating per-chunk
/// results over ascending left-row ranges reproduces the whole join.
Result<Table> probe_join(const Table& left, int lk, const Table& right, int rk,
                         JoinKind kind, const JoinBuild& build, ThreadPool* pool) {
  const ColumnSpan<std::int64_t> lkeys = left.column(lk).int_span();
  const std::vector<JoinPart>& tables = build.tables;
  const std::size_t parts = build.parts;
  const std::uint64_t part_mask = build.part_mask;
  auto probe = [&](std::int64_t key) {
    const std::size_t p = parts == 1 ? 0 : (stable_hash64(key) & part_mask);
    return tables[p].find(key);
  };

  const std::size_t lrows_n = lkeys.size();
  if (kind == JoinKind::kLeftSemi || kind == JoinKind::kLeftAnti) {
    const std::uint8_t want = kind == JoinKind::kLeftSemi ? 1 : 0;
    std::vector<std::uint8_t> mask(lrows_n);
    const std::size_t chunks =
        std::max<std::size_t>(1, (lrows_n + kScatterChunkRows - 1) / kScatterChunkRows);
    const auto fill_mask = [&](auto hit) {
      run_chunked(chunks, pool, [&](std::size_t c) {
        const std::size_t lo = c * kScatterChunkRows;
        const std::size_t hi = std::min(lrows_n, lo + kScatterChunkRows);
        for (std::size_t r = lo; r < hi; ++r) {
          mask[r] = static_cast<std::uint8_t>(hit(lkeys[r])) == want;
        }
      });
    };
    if (build.dense) {
      fill_mask([&](std::int64_t key) { return build.contains(key); });
    } else {
      fill_mask([&](std::int64_t key) { return probe(key) != kNoGroup; });
    }
    const std::vector<std::uint32_t> keep = selection_from_mask(mask.data(), lrows_n, pool);
    return gather_rows(left, keep.data(), keep.size(), pool);
  }

  // Inner join: count pass per chunk, exclusive scan, fill pass. Chunk
  // slabs are ascending left-row ranges, so the concatenated output is
  // globally left-row ordered with duplicates by ascending right row.
  const std::size_t chunks =
      std::max<std::size_t>(1, (lrows_n + kScatterChunkRows - 1) / kScatterChunkRows);
  std::vector<std::size_t> counts(chunks, 0);
  run_chunked(chunks, pool, [&](std::size_t c) {
    const std::size_t lo = c * kScatterChunkRows;
    const std::size_t hi = std::min(lrows_n, lo + kScatterChunkRows);
    std::size_t n = 0;
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t p = parts == 1 ? 0 : (stable_hash64(lkeys[r]) & part_mask);
      for (std::uint32_t node = tables[p].find(lkeys[r]); node != kNoGroup;
           node = tables[p].node_next(node)) {
        ++n;
      }
    }
    counts[c] = n;
  });
  std::vector<std::size_t> offsets(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c) offsets[c + 1] = offsets[c] + counts[c];
  const std::size_t matches = offsets[chunks];
  std::vector<std::uint32_t> lrows(matches), rrows(matches);
  run_chunked(chunks, pool, [&](std::size_t c) {
    const std::size_t lo = c * kScatterChunkRows;
    const std::size_t hi = std::min(lrows_n, lo + kScatterChunkRows);
    std::size_t w = offsets[c];
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t p = parts == 1 ? 0 : (stable_hash64(lkeys[r]) & part_mask);
      for (std::uint32_t node = tables[p].find(lkeys[r]); node != kNoGroup;
           node = tables[p].node_next(node)) {
        lrows[w] = static_cast<std::uint32_t>(r);
        rrows[w] = tables[p].node_row(node);
        ++w;
      }
    }
  });

  const Table lpart = gather_rows(left, lrows.data(), matches, pool);
  const Table rpart = gather_rows(right, rrows.data(), matches, pool);
  Schema schema = left.schema();
  std::vector<Column> cols;
  for (std::size_t c = 0; c < lpart.num_columns(); ++c) cols.push_back(lpart.column(c));
  for (std::size_t c = 0; c < rpart.num_columns(); ++c) {
    if (static_cast<int>(c) == rk) continue;
    Field f = right.schema()[c];
    if (left.column_index(f.name) >= 0) f.name = "r_" + f.name;
    schema.push_back(f);
    cols.push_back(rpart.column(c));
  }
  return Table::make(std::move(schema), std::move(cols));
}

}  // namespace

Result<Table> hash_join_kernel(const Table& left, const std::string& left_key,
                               const Table& right, const std::string& right_key,
                               JoinKind kind, ThreadPool* pool) {
  const int lk = left.column_index(left_key);
  const int rk = right.column_index(right_key);
  if (lk < 0 || rk < 0) return Status::not_found("join key column missing");
  if (left.column(lk).type() != DataType::kInt64 ||
      right.column(rk).type() != DataType::kInt64) {
    return Status::invalid_argument("join keys must be int64");
  }
  const ColumnSpan<std::int64_t> rkeys = right.column(rk).int_span();
  const bool parallel =
      pool_width(pool) >= 2 &&
      (rkeys.size() > kParallelMinRows || left.num_rows() > kParallelMinRows);
  const JoinBuild build = make_join_build(rkeys, kind, parallel, pool);
  return probe_join(left, lk, right, rk, kind, build, pool);
}

// ---------------------------------------------------------------------------
// Filter kernel.

namespace {

/// A ColumnPred resolved against the input table: raw pointers and the
/// comparison domain (int64 only when every term is integral).
struct PredPlan {
  const std::int64_t* li = nullptr;
  const double* ld = nullptr;
  const std::int64_t* ri = nullptr;
  const double* rd = nullptr;
  CmpOp op = CmpOp::kEq;
  double scale = 1.0;
  std::int64_t iconst = 0;
  double dconst = 0.0;
  bool has_rhs_col = false;
  bool int_compare = false;
};

Result<PredPlan> resolve_pred(const Table& in, const ColumnPred& p) {
  PredPlan plan;
  plan.op = p.op;
  plan.scale = p.scale;
  DITTO_ASSIGN_OR_RETURN(const Column* lc, in.checked_column(p.column));
  if (lc->type() == DataType::kString) {
    return Status::invalid_argument("filter_cols on string column: " + p.column);
  }
  const bool lhs_int = lc->type() == DataType::kInt64;
  if (lhs_int) {
    plan.li = lc->int_span().data();
  } else {
    plan.ld = lc->double_span().data();
  }
  if (!p.rhs_column.empty()) {
    plan.has_rhs_col = true;
    DITTO_ASSIGN_OR_RETURN(const Column* rc, in.checked_column(p.rhs_column));
    if (rc->type() == DataType::kString) {
      return Status::invalid_argument("filter_cols on string column: " + p.rhs_column);
    }
    const bool rhs_int = rc->type() == DataType::kInt64;
    if (rhs_int) {
      plan.ri = rc->int_span().data();
    } else {
      plan.rd = rc->double_span().data();
    }
    plan.int_compare = lhs_int && rhs_int && p.scale == 1.0;
  } else {
    plan.iconst = p.int_value;
    plan.dconst = p.value_is_int ? static_cast<double>(p.int_value) : p.double_value;
    plan.int_compare = lhs_int && p.value_is_int;
  }
  return plan;
}

template <typename F>
inline void fill_mask(std::uint8_t* m, std::size_t lo, std::size_t hi, bool first, F f) {
  if (first) {
    for (std::size_t r = lo; r < hi; ++r) m[r] = static_cast<std::uint8_t>(f(r));
  } else {
    for (std::size_t r = lo; r < hi; ++r) m[r] &= static_cast<std::uint8_t>(f(r));
  }
}

template <typename GetL, typename GetR>
inline void eval_cmp(CmpOp op, std::uint8_t* m, std::size_t lo, std::size_t hi, bool first,
                     GetL gl, GetR gr) {
  switch (op) {
    case CmpOp::kEq: fill_mask(m, lo, hi, first, [&](std::size_t r) { return gl(r) == gr(r); }); break;
    case CmpOp::kNe: fill_mask(m, lo, hi, first, [&](std::size_t r) { return gl(r) != gr(r); }); break;
    case CmpOp::kLt: fill_mask(m, lo, hi, first, [&](std::size_t r) { return gl(r) < gr(r); }); break;
    case CmpOp::kLe: fill_mask(m, lo, hi, first, [&](std::size_t r) { return gl(r) <= gr(r); }); break;
    case CmpOp::kGt: fill_mask(m, lo, hi, first, [&](std::size_t r) { return gl(r) > gr(r); }); break;
    case CmpOp::kGe: fill_mask(m, lo, hi, first, [&](std::size_t r) { return gl(r) >= gr(r); }); break;
  }
}

void eval_pred(const PredPlan& p, std::uint8_t* m, std::size_t lo, std::size_t hi,
               bool first) {
  auto lhs_d = [&](std::size_t r) {
    return p.li ? static_cast<double>(p.li[r]) : p.ld[r];
  };
  if (p.has_rhs_col) {
    if (p.int_compare) {
      eval_cmp(p.op, m, lo, hi, first, [&](std::size_t r) { return p.li[r]; },
               [&](std::size_t r) { return p.ri[r]; });
    } else {
      auto rhs_d = [&](std::size_t r) {
        return p.scale * (p.ri ? static_cast<double>(p.ri[r]) : p.rd[r]);
      };
      eval_cmp(p.op, m, lo, hi, first, lhs_d, rhs_d);
    }
  } else if (p.int_compare) {
    eval_cmp(p.op, m, lo, hi, first, [&](std::size_t r) { return p.li[r]; },
             [&](std::size_t) { return p.iconst; });
  } else {
    eval_cmp(p.op, m, lo, hi, first, lhs_d, [&](std::size_t) { return p.dconst; });
  }
}

}  // namespace

Result<Table> filter_kernel(const Table& in, const std::vector<ColumnPred>& preds,
                            ThreadPool* pool) {
  std::vector<PredPlan> plans;
  plans.reserve(preds.size());
  for (const ColumnPred& p : preds) {
    DITTO_ASSIGN_OR_RETURN(PredPlan plan, resolve_pred(in, p));
    plans.push_back(plan);
  }
  const std::size_t rows = in.num_rows();
  if (plans.empty()) {
    // AND of zero predicates keeps every row.
    return in.slice(0, rows);
  }
  std::vector<std::uint8_t> mask(rows);
  const std::size_t chunks =
      std::max<std::size_t>(1, (rows + kScatterChunkRows - 1) / kScatterChunkRows);
  run_chunked(chunks, pool, [&](std::size_t c) {
    const std::size_t lo = c * kScatterChunkRows;
    const std::size_t hi = std::min(rows, lo + kScatterChunkRows);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      eval_pred(plans[i], mask.data(), lo, hi, /*first=*/i == 0);
    }
  });
  const std::vector<std::uint32_t> keep = selection_from_mask(mask.data(), rows, pool);
  return gather_rows(in, keep.data(), keep.size(), pool);
}

// ---------------------------------------------------------------------------
// Streaming kernels. Kernel timers wrap only the per-chunk compute, not
// the blocking next() pull — waiting on an upstream producer is
// transport time, not kernel time.

Result<Table> gather_chunks(const TableChunkFn& next) {
  std::vector<Table> chunks;
  while (true) {
    DITTO_ASSIGN_OR_RETURN(std::optional<Table> chunk, next());
    if (!chunk.has_value()) break;
    chunks.push_back(std::move(*chunk));
  }
  if (chunks.empty()) return Status::invalid_argument("gather_chunks: empty chunk stream");
  return concat_tables(std::move(chunks));
}

Result<Table> filter_stream(const TableChunkFn& next, const std::vector<ColumnPred>& preds,
                            ThreadPool* pool) {
  if (pool == nullptr) pool = task_compute_pool();
  std::vector<Table> parts;
  while (true) {
    DITTO_ASSIGN_OR_RETURN(std::optional<Table> chunk, next());
    if (!chunk.has_value()) break;
    detail::KernelTimer timer(&KernelSeconds::filter);
    DITTO_ASSIGN_OR_RETURN(Table part, filter_kernel(*chunk, preds, pool));
    parts.push_back(std::move(part));
  }
  if (parts.empty()) return Status::invalid_argument("filter_stream: empty chunk stream");
  detail::KernelTimer timer(&KernelSeconds::filter);
  return concat_tables(std::move(parts));
}

Result<Table> hash_join_stream(const TableChunkFn& next_left, const std::string& left_key,
                               const Table& right, const std::string& right_key,
                               JoinKind kind, ThreadPool* pool) {
  if (pool == nullptr) pool = task_compute_pool();
  const int rk = right.column_index(right_key);
  if (rk < 0) return Status::not_found("join key column missing");
  if (right.column(rk).type() != DataType::kInt64) {
    return Status::invalid_argument("join keys must be int64");
  }
  const ColumnSpan<std::int64_t> rkeys = right.column(rk).int_span();
  // Probe volume is unknown up front, so the parallel-build decision
  // keys off the build side alone; `parts` never changes the output.
  const bool parallel = pool_width(pool) >= 2 && rkeys.size() > kParallelMinRows;
  std::optional<JoinBuild> build;
  {
    detail::KernelTimer timer(&KernelSeconds::join);
    build = make_join_build(rkeys, kind, parallel, pool);
  }
  std::vector<Table> parts;
  while (true) {
    DITTO_ASSIGN_OR_RETURN(std::optional<Table> chunk, next_left());
    if (!chunk.has_value()) break;
    const int lk = chunk->column_index(left_key);
    if (lk < 0) return Status::not_found("join key column missing");
    if (chunk->column(lk).type() != DataType::kInt64) {
      return Status::invalid_argument("join keys must be int64");
    }
    detail::KernelTimer timer(&KernelSeconds::join);
    DITTO_ASSIGN_OR_RETURN(Table part, probe_join(*chunk, lk, right, rk, kind, *build, pool));
    parts.push_back(std::move(part));
  }
  if (parts.empty()) return Status::invalid_argument("hash_join_stream: empty chunk stream");
  detail::KernelTimer timer(&KernelSeconds::join);
  return concat_tables(std::move(parts));
}

}  // namespace ditto::exec
