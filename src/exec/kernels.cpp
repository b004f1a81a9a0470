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
  const std::vector<std::int64_t>& keys() const { return group_key_; }

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

/// Composite-key variant: key identity is the tuple of key-column
/// values at a representative row; equality compares the columns.
class FlatMultiMap {
 public:
  FlatMultiMap(const std::vector<ColumnSpan<std::int64_t>>& cols,
               std::size_t expected_groups)
      : cols_(cols) {
    rehash(next_pow2(std::max<std::size_t>(16, expected_groups * 2)));
  }

  static std::uint64_t hash_row(const std::vector<ColumnSpan<std::int64_t>>& cols,
                                std::size_t r) {
    std::uint64_t h = 0;
    for (const auto& c : cols) {
      h = stable_hash64(static_cast<std::int64_t>(h) ^ c[r]);
    }
    return h;
  }

  std::uint32_t find_or_insert(std::uint32_t row, std::uint64_t h, bool& inserted) {
    if ((n_ + 1) * 10 > cap_ * 7) rehash(cap_ * 2);
    std::size_t i = h >> shift_;
    for (;;) {
      if (slot_group_[i] == kNoGroup) {
        slot_hash_[i] = h;
        slot_group_[i] = n_;
        group_row_.push_back(row);
        group_hash_.push_back(h);
        inserted = true;
        return n_++;
      }
      if (slot_hash_[i] == h && rows_equal(group_row_[slot_group_[i]], row)) {
        inserted = false;
        return slot_group_[i];
      }
      i = (i + 1) & mask_;
    }
  }

  std::uint32_t size() const { return n_; }
  std::uint32_t row_of(std::uint32_t g) const { return group_row_[g]; }

 private:
  bool rows_equal(std::uint32_t a, std::uint32_t b) const {
    for (const auto& c : cols_) {
      if (c[a] != c[b]) return false;
    }
    return true;
  }

  void rehash(std::size_t cap) {
    cap_ = cap;
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    slot_hash_.assign(cap, 0);
    slot_group_.assign(cap, kNoGroup);
    for (std::uint32_t g = 0; g < n_; ++g) {
      std::size_t i = group_hash_[g] >> shift_;
      while (slot_group_[i] != kNoGroup) i = (i + 1) & mask_;
      slot_hash_[i] = group_hash_[g];
      slot_group_[i] = g;
    }
  }

  const std::vector<ColumnSpan<std::int64_t>>& cols_;
  std::vector<std::uint64_t> slot_hash_;
  std::vector<std::uint32_t> slot_group_;
  std::vector<std::uint32_t> group_row_;   // group id -> representative row
  std::vector<std::uint64_t> group_hash_;  // group id -> hash
  std::size_t cap_ = 0, mask_ = 0;
  unsigned shift_ = 64;
  std::uint32_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Shared aggregation machinery. Acc and its per-row update are copied
// verbatim from the reference formulation: bit-identity depends on the
// accumulator seeing the same value sequence AND folding it with the
// same expressions.

struct Acc {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::int64_t count = 0;
  std::int64_t first = 0;
};

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
  return inputs;
}

/// Compact struct-of-arrays accumulators: one dense per-group array
/// per aggregate that needs one (plus shared counts), instead of
/// strided 40-byte Acc records. This is what the columnar fold writes
/// and what the radix path emits straight from.
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
        if (inputs[a].is_int) {
          f.first[a].resize(groups);
          for (std::size_t i = 0; i < groups; ++i) {
            f.first[a][i] = inputs[a].ints[row_at(first_pos[i])];
          }
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

/// Adapter for the Acc-based paths (serial flat, multi-key): expand
/// compact folds into group-major Acc records for emit_group_by.
std::vector<Acc> accs_from_folds(const std::vector<AggSpec>& aggs,
                                 const std::vector<AggInput>& inputs, const FoldedAggs& f) {
  const std::size_t groups = f.counts.size();
  const std::size_t naggs = aggs.size();
  std::vector<Acc> accs(groups * naggs);
  for (std::size_t i = 0; i < groups; ++i) {
    for (std::size_t a = 0; a < naggs; ++a) {
      Acc& acc = accs[i * naggs + a];
      acc.count = f.counts[i];
      switch (aggs[a].kind) {
        case AggKind::kCount: break;
        case AggKind::kSum:
        case AggKind::kAvg: acc.sum = f.vals[a][i]; break;
        case AggKind::kMin: acc.min = f.vals[a][i]; break;
        case AggKind::kMax: acc.max = f.vals[a][i]; break;
        case AggKind::kFirstInt:
          if (inputs[a].is_int) acc.first = f.first[a][i];
          break;
      }
    }
  }
  return accs;
}

/// Groups in globally sorted key order, accumulators materialized in
/// that order (output row i, aggregate a -> accs[i * naggs + a]).
struct SortedGroups {
  std::vector<std::int64_t> sorted_keys;
  std::vector<Acc> accs;
};

Result<Table> emit_group_by(const std::string& key, const std::vector<AggSpec>& aggs,
                            const std::vector<AggInput>& inputs, SortedGroups&& g) {
  const std::size_t n = g.sorted_keys.size();
  Schema schema{{key, DataType::kInt64}};
  std::vector<Column> cols;
  cols.emplace_back(std::move(g.sorted_keys));
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == AggKind::kCount) {
      std::vector<std::int64_t> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = g.accs[i * aggs.size() + a].count;
      schema.push_back({aggs[a].as, DataType::kInt64});
      cols.emplace_back(std::move(v));
    } else if (aggs[a].kind == AggKind::kFirstInt) {
      if (!inputs[a].is_int) {
        return Status::invalid_argument("first-int aggregate needs an int64 column");
      }
      std::vector<std::int64_t> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = g.accs[i * aggs.size() + a].first;
      schema.push_back({aggs[a].as, DataType::kInt64});
      cols.emplace_back(std::move(v));
    } else {
      std::vector<double> v(n);
      for (std::size_t i = 0; i < n; ++i) {
        const Acc& acc = g.accs[i * aggs.size() + a];
        switch (aggs[a].kind) {
          case AggKind::kSum: v[i] = acc.sum; break;
          case AggKind::kMin: v[i] = acc.min; break;
          case AggKind::kMax: v[i] = acc.max; break;
          case AggKind::kAvg: v[i] = acc.sum / static_cast<double>(acc.count); break;
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

/// Sort first-seen-ordered groups into SortedGroups (key order).
SortedGroups sort_groups(const std::vector<std::int64_t>& group_keys,
                         std::vector<Acc>&& accs, std::size_t naggs) {
  const std::size_t n = group_keys.size();
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return group_keys[a] < group_keys[b];
  });
  SortedGroups out;
  out.sorted_keys.resize(n);
  out.accs.resize(n * naggs);
  for (std::size_t i = 0; i < n; ++i) {
    out.sorted_keys[i] = group_keys[order[i]];
    for (std::size_t a = 0; a < naggs; ++a) {
      out.accs[i * naggs + a] = accs[std::size_t{order[i]} * naggs + a];
    }
  }
  return out;
}

std::size_t pool_width(ThreadPool* pool) { return pool ? pool->size() : 0; }

/// Radix fanout for partition-parallel kernels: a few partitions per
/// pool thread for balance, power of two, capped to keep per-partition
/// fixed costs negligible.
std::size_t radix_fanout(std::size_t width) {
  return next_pow2(std::min<std::size_t>(64, std::max<std::size_t>(8, width * 4)));
}

}  // namespace

// ---------------------------------------------------------------------------
// Group-by strategy.

GroupByStrategy pick_group_by_strategy(std::size_t rows) {
  // Radix even without a pool: on large inputs the partition pass pays
  // for itself by making every per-partition structure cache-resident.
  return rows <= kParallelMinRows ? GroupByStrategy::kSerialFlat
                                  : GroupByStrategy::kRadixPartitioned;
}

// ---------------------------------------------------------------------------
// Group-by kernel.

namespace {

SortedGroups group_by_serial(ColumnSpan<std::int64_t> keys, const std::vector<AggSpec>& aggs,
                             const std::vector<AggInput>& inputs) {
  const std::size_t n = keys.size();
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
  std::vector<Acc> accs = accs_from_folds(
      aggs, inputs,
      fold_aggs_columnar(aggs, inputs, gid, first_pos, [](std::size_t j) { return j; }));
  return sort_groups(map.keys(), std::move(accs), aggs.size());
}

/// The radix path emits the output table itself: per-partition compact
/// folds are sorted locally (cache-hot), the disjoint sorted key
/// streams heap-merge into global key order, and every output column
/// fills in one pass straight from the fold arrays — no intermediate
/// Acc materialization, no global sort.
Result<Table> group_by_radix(const std::string& key, ColumnSpan<std::int64_t> keys,
                             const std::vector<AggSpec>& aggs,
                             const std::vector<AggInput>& inputs, ThreadPool* pool) {
  const std::size_t n = keys.size();
  // Fanout serves two masters: enough partitions for pool balance AND
  // per-partition state (hash table + fold arrays) small enough to
  // stay cache-resident. ~16k rows per partition hits both — which is
  // why this path also wins with no pool at all.
  const std::size_t parts = radix_fanout(std::max(pool_width(pool), n / (16 * 1024)));
  const ScatterPlan plan = make_radix_plan(keys, parts, pool);

  // Partition-major copies of the key and every aggregate input column
  // (deduped by source buffer). The scatter reads sequentially and
  // streams into per-partition ranges; every pass below then touches
  // only dense, partition-local data.
  const std::vector<std::int64_t> part_keys = partitioned_values(plan, keys, pool);
  std::vector<const std::int64_t*> int_srcs;
  std::vector<const double*> dbl_srcs;
  std::vector<std::vector<std::int64_t>> int_scat;
  std::vector<std::vector<double>> dbl_scat;
  std::vector<AggInput> scat_inputs(aggs.size());
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == AggKind::kCount) continue;
    scat_inputs[a].is_int = inputs[a].is_int;
    if (inputs[a].is_int) {
      const std::int64_t* src = inputs[a].ints.data();
      std::size_t i = std::find(int_srcs.begin(), int_srcs.end(), src) - int_srcs.begin();
      if (i == int_srcs.size()) {
        int_srcs.push_back(src);
        int_scat.push_back(partitioned_values(plan, inputs[a].ints, pool));
      }
      scat_inputs[a].ints = ColumnSpan<std::int64_t>(int_scat[i].data(), n);
    } else {
      const double* src = inputs[a].doubles.data();
      std::size_t i = std::find(dbl_srcs.begin(), dbl_srcs.end(), src) - dbl_srcs.begin();
      if (i == dbl_srcs.size()) {
        dbl_srcs.push_back(src);
        dbl_scat.push_back(partitioned_values(plan, inputs[a].doubles, pool));
      }
      scat_inputs[a].doubles = ColumnSpan<double>(dbl_scat[i].data(), n);
    }
  }

  // Aggregate each partition independently; row order within a
  // partition is the original row order, so every group accumulates
  // its values in exactly the reference's sequence. Each partition
  // also sorts its own (small, cache-hot) group set by key.
  struct RadixLocal {
    FlatMap map;
    FoldedAggs folds;
    std::vector<std::uint32_t> order;  // group ids in ascending key order
    explicit RadixLocal(std::size_t expected) : map(expected) {}
  };
  std::vector<RadixLocal> locals;
  locals.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    locals.emplace_back(std::max<std::size_t>(256, plan.counts[p] / 4));
  }
  run_chunked(parts, pool, [&](std::size_t p) {
    const std::size_t lo = plan.part_start[p];
    const std::size_t len = plan.part_start[p + 1] - lo;
    RadixLocal& local = locals[p];
    std::vector<std::uint32_t> gid(len);
    std::vector<std::uint32_t> first_pos;
    for (std::size_t j = 0; j < len; ++j) {
      bool inserted = false;
      const std::uint32_t id = local.map.find_or_insert(part_keys[lo + j], inserted);
      if (inserted) first_pos.push_back(static_cast<std::uint32_t>(j));
      gid[j] = id;
    }
    std::vector<AggInput> part_inputs(aggs.size());
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      part_inputs[a].is_int = scat_inputs[a].is_int;
      if (!scat_inputs[a].ints.empty()) {
        part_inputs[a].ints = ColumnSpan<std::int64_t>(scat_inputs[a].ints.data() + lo, len);
      }
      if (!scat_inputs[a].doubles.empty()) {
        part_inputs[a].doubles = ColumnSpan<double>(scat_inputs[a].doubles.data() + lo, len);
      }
    }
    local.folds = fold_aggs_columnar(aggs, part_inputs, gid, first_pos,
                                     [](std::size_t j) { return j; });
    const std::uint32_t groups = local.map.size();
    local.order.resize(groups);
    for (std::uint32_t g = 0; g < groups; ++g) local.order[g] = g;
    std::sort(local.order.begin(), local.order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return local.map.key_of(a) < local.map.key_of(b);
              });
  });

  // Partitions hold disjoint key sets, each sorted: a heap merge of
  // the streams yields global key order in total x log(parts) steps.
  std::size_t total = 0;
  for (const RadixLocal& l : locals) total += l.map.size();
  struct Head {
    std::int64_t key;
    std::uint32_t part;
    std::uint32_t idx;  // position in that partition's order[]
  };
  const auto later = [](const Head& a, const Head& b) { return a.key > b.key; };
  std::vector<Head> heap;
  heap.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    if (locals[p].map.size() > 0) {
      heap.push_back({locals[p].map.key_of(locals[p].order[0]),
                      static_cast<std::uint32_t>(p), 0});
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
    if (++h.idx < locals[h.part].order.size()) {
      h.key = locals[h.part].map.key_of(locals[h.part].order[h.idx]);
      heap.push_back(h);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }

  // Emit straight from the fold arrays, column at a time. Schema and
  // value expressions match emit_group_by exactly.
  Schema schema{{key, DataType::kInt64}};
  std::vector<Column> cols;
  cols.emplace_back(std::move(out_keys));
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const auto fold_of = [&](std::size_t i) -> const FoldedAggs& {
      return locals[merged[i] >> 32].folds;
    };
    const auto group_of = [&](std::size_t i) {
      return static_cast<std::size_t>(merged[i] & 0xffffffffu);
    };
    if (aggs[a].kind == AggKind::kCount) {
      std::vector<std::int64_t> v(total);
      for (std::size_t i = 0; i < total; ++i) v[i] = fold_of(i).counts[group_of(i)];
      schema.push_back({aggs[a].as, DataType::kInt64});
      cols.emplace_back(std::move(v));
    } else if (aggs[a].kind == AggKind::kFirstInt) {
      if (!inputs[a].is_int) {
        return Status::invalid_argument("first-int aggregate needs an int64 column");
      }
      std::vector<std::int64_t> v(total);
      for (std::size_t i = 0; i < total; ++i) v[i] = fold_of(i).first[a][group_of(i)];
      schema.push_back({aggs[a].as, DataType::kInt64});
      cols.emplace_back(std::move(v));
    } else {
      std::vector<double> v(total);
      if (aggs[a].kind == AggKind::kAvg) {
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
  return Table::make(std::move(schema), std::move(cols));
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

  switch (pick_group_by_strategy(keys.size())) {
    case GroupByStrategy::kSerialFlat:
      return emit_group_by(key, aggs, inputs, group_by_serial(keys, aggs, inputs));
    case GroupByStrategy::kRadixPartitioned:
      return group_by_radix(key, keys, aggs, inputs, pool);
  }
  return Status::internal("unreachable group-by strategy");
}

// ---------------------------------------------------------------------------
// Multi-key group-by kernel. Same shape as the single-key radix path;
// group identity is the key tuple (representative row) and output
// order is lexicographic.

namespace {

struct MultiLocal {
  FlatMultiMap map;
  std::vector<Acc> accs;

  MultiLocal(const std::vector<ColumnSpan<std::int64_t>>& cols, std::size_t expected)
      : map(cols, expected) {}
};

}  // namespace

Result<Table> group_by_multi_kernel(const Table& in, const std::vector<std::string>& keys,
                                    const std::vector<AggSpec>& aggs, ThreadPool* pool) {
  if (keys.empty()) return Status::invalid_argument("group_by_multi needs keys");
  if (keys.size() == 1) return group_by_kernel(in, keys[0], aggs, pool);

  std::vector<ColumnSpan<std::int64_t>> key_cols;
  for (const std::string& k : keys) {
    DITTO_ASSIGN_OR_RETURN(const Column* cp, in.checked_column(k));
    if (cp->type() != DataType::kInt64) {
      return Status::invalid_argument("group_by_multi keys must be int64");
    }
    key_cols.push_back(cp->int_span());
  }
  DITTO_ASSIGN_OR_RETURN(std::vector<AggInput> inputs, resolve_agg_inputs(in, aggs));

  const std::size_t rows = in.num_rows();
  const bool parallel = pool_width(pool) >= 2 && rows > kParallelMinRows;
  const std::size_t parts = parallel ? radix_fanout(pool_width(pool)) : 1;

  std::vector<MultiLocal> locals;
  locals.reserve(parts);
  if (parts == 1) {
    locals.emplace_back(key_cols, std::max<std::size_t>(256, rows / 4));
    MultiLocal& local = locals[0];
    std::vector<std::uint32_t> gid(rows);
    std::vector<std::uint32_t> first_pos;
    for (std::size_t r = 0; r < rows; ++r) {
      bool inserted = false;
      const std::uint32_t id = local.map.find_or_insert(
          static_cast<std::uint32_t>(r), FlatMultiMap::hash_row(key_cols, r), inserted);
      if (inserted) first_pos.push_back(static_cast<std::uint32_t>(r));
      gid[r] = id;
    }
    local.accs = accs_from_folds(
        aggs, inputs,
        fold_aggs_columnar(aggs, inputs, gid, first_pos, [](std::size_t j) { return j; }));
  } else {
    const ScatterPlan plan = make_radix_plan_multi(key_cols, parts, pool);
    const std::vector<std::uint32_t> row_ids = partitioned_row_indices(plan, pool);
    for (std::size_t p = 0; p < parts; ++p) {
      locals.emplace_back(key_cols, std::max<std::size_t>(256, plan.counts[p] / 4));
    }
    run_chunked(parts, pool, [&](std::size_t p) {
      MultiLocal& local = locals[p];
      const std::size_t lo = plan.part_start[p];
      const std::size_t len = plan.part_start[p + 1] - lo;
      std::vector<std::uint32_t> gid(len);
      std::vector<std::uint32_t> first_pos;
      for (std::size_t j = 0; j < len; ++j) {
        const std::uint32_t r = row_ids[lo + j];
        bool inserted = false;
        const std::uint32_t id =
            local.map.find_or_insert(r, FlatMultiMap::hash_row(key_cols, r), inserted);
        if (inserted) first_pos.push_back(static_cast<std::uint32_t>(j));
        gid[j] = id;
      }
      local.accs = accs_from_folds(aggs, inputs,
                                   fold_aggs_columnar(aggs, inputs, gid, first_pos,
                                                      [&](std::size_t j) { return row_ids[lo + j]; }));
    });
  }

  // Lexicographic output order via representative rows (partitions
  // hold disjoint tuple sets, so one global sort interleaves them).
  std::size_t total = 0;
  for (const MultiLocal& l : locals) total += l.map.size();
  std::vector<std::uint64_t> merged;  // (partition << 32) | group
  merged.reserve(total);
  for (std::size_t p = 0; p < parts; ++p) {
    for (std::uint32_t g = 0; g < locals[p].map.size(); ++g) {
      merged.push_back((std::uint64_t{p} << 32) | g);
    }
  }
  auto rep_row = [&](std::uint64_t id) {
    return locals[id >> 32].map.row_of(static_cast<std::uint32_t>(id & 0xffffffffu));
  };
  std::sort(merged.begin(), merged.end(), [&](std::uint64_t a, std::uint64_t b) {
    const std::uint32_t ra = rep_row(a), rb = rep_row(b);
    for (const auto& c : key_cols) {
      if (c[ra] != c[rb]) return c[ra] < c[rb];
    }
    return false;
  });

  // Emit: key columns then aggregates, schema identical to reference.
  Schema schema;
  for (const std::string& k : keys) schema.push_back({k, DataType::kInt64});
  std::vector<std::vector<std::int64_t>> key_out(keys.size(),
                                                 std::vector<std::int64_t>(total));
  const std::size_t naggs = aggs.size();
  for (std::size_t i = 0; i < total; ++i) {
    const std::uint32_t r = rep_row(merged[i]);
    for (std::size_t k = 0; k < keys.size(); ++k) key_out[k][i] = key_cols[k][r];
  }
  std::vector<Column> columns;
  for (auto& k : key_out) columns.emplace_back(std::move(k));
  for (std::size_t a = 0; a < naggs; ++a) {
    const bool is_int = aggs[a].kind == AggKind::kCount || aggs[a].kind == AggKind::kFirstInt;
    if (aggs[a].kind == AggKind::kFirstInt && !inputs[a].is_int) {
      return Status::invalid_argument("first-int aggregate needs an int64 column");
    }
    schema.push_back({aggs[a].as, is_int ? DataType::kInt64 : DataType::kDouble});
    if (is_int) {
      std::vector<std::int64_t> v(total);
      for (std::size_t i = 0; i < total; ++i) {
        const std::size_t p = merged[i] >> 32;
        const std::size_t g = merged[i] & 0xffffffffu;
        const Acc& acc = locals[p].accs[g * naggs + a];
        v[i] = aggs[a].kind == AggKind::kCount ? acc.count : acc.first;
      }
      columns.emplace_back(std::move(v));
    } else {
      std::vector<double> v(total);
      for (std::size_t i = 0; i < total; ++i) {
        const std::size_t p = merged[i] >> 32;
        const std::size_t g = merged[i] & 0xffffffffu;
        const Acc& acc = locals[p].accs[g * naggs + a];
        switch (aggs[a].kind) {
          case AggKind::kSum: v[i] = acc.sum; break;
          case AggKind::kMin: v[i] = acc.min; break;
          case AggKind::kMax: v[i] = acc.max; break;
          case AggKind::kAvg: v[i] = acc.sum / static_cast<double>(acc.count); break;
          case AggKind::kCount:
          case AggKind::kFirstInt: break;  // handled above
        }
      }
      columns.emplace_back(std::move(v));
    }
  }
  return Table::make(std::move(schema), std::move(columns));
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
};

JoinBuild make_join_build(ColumnSpan<std::int64_t> rkeys, bool parallel, ThreadPool* pool) {
  JoinBuild build;
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
    run_chunked(chunks, pool, [&](std::size_t c) {
      const std::size_t lo = c * kScatterChunkRows;
      const std::size_t hi = std::min(lrows_n, lo + kScatterChunkRows);
      for (std::size_t r = lo; r < hi; ++r) {
        mask[r] = static_cast<std::uint8_t>(probe(lkeys[r]) != kNoGroup) == want;
      }
    });
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
  const JoinBuild build = make_join_build(rkeys, parallel, pool);
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
    build = make_join_build(rkeys, parallel, pool);
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
