// Kernel-equivalence corpus: every columnar kernel must produce
// BIT-IDENTICAL output to its row-at-a-time reference
// (tests/support/reference.h) — same schema, same row order,
// same floating-point accumulation — across owned and borrowed
// columns, every pool width, and the adversarial table shapes below
// (empty, single row, all-equal keys, Zipf skew, low and moderate
// cardinality on large inputs). Every shape has dense keys, which the
// kernels index directly; the "_sparse" shapes spread the same keys
// over the whole int64 range, so the hash paths stay checked too. The
// TSan CI job runs this corpus under --gtest_filter='KernelEquivalence*'
// to also shake out data races in the partition-parallel paths, and
// the ASan/UBSan job runs it with GroupByStrategy* to check the key
// span arithmetic near the int64 limits.
#include "exec/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "exec/datagen.h"
#include "exec/operators.h"
#include "exec/partition.h"
#include "exec/table.h"
#include "support/reference.h"
#include "support/tables.h"

namespace ditto::exec {
namespace {

/// Same rows, every column converted to a borrowed span over storage
/// kept alive by the fixture — exercises the zero-copy input path the
/// engine feeds kernels after a shuffle.
struct BorrowedTable {
  Table owner;  // keeps the storage alive
  Table view;
};

BorrowedTable borrow(Table t) {
  BorrowedTable b;
  b.owner = std::move(t);
  std::vector<Column> cols;
  for (std::size_t c = 0; c < b.owner.num_columns(); ++c) {
    cols.push_back(b.owner.column(c).borrowed_copy());
  }
  b.view = std::move(Table::make(b.owner.schema(), std::move(cols))).value();
  return b;
}

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// The sparse image of a dense key: multiplying by a large odd constant
/// (mod 2^64) is a bijection, so equal keys stay equal and distinct keys
/// distinct, but the span covers the whole int64 range.
std::int64_t sparse_key(std::int64_t k) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull);
}

/// `t` with column `col` mapped through sparse_key.
Table with_sparse_keys(const Table& t, const std::string& col) {
  std::vector<Column> cols;
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    if (t.schema()[c].name != col) {
      cols.push_back(t.column(c));
      continue;
    }
    std::vector<std::int64_t> v(t.num_rows());
    const auto src = t.column(c).int_span();
    for (std::size_t r = 0; r < v.size(); ++r) v[r] = sparse_key(src[r]);
    cols.emplace_back(std::move(v));
  }
  return std::move(Table::make(t.schema(), std::move(cols))).value();
}

/// One corpus shape. `sparse` shapes have their order_id mapped through
/// sparse_key, so a join against them needs the mapped dim ids.
struct Shape {
  std::string name;
  Table table;
  bool sparse = false;
};

/// The corpus of table shapes every kernel is checked against.
std::vector<Shape> corpus() {
  std::vector<Shape> out;
  out.push_back({"empty", gen_fact_table({.rows = 0})});
  out.push_back({"single_row", gen_fact_table({.rows = 1})});
  out.push_back({"all_equal_keys", gen_fact_table({.rows = 5000, .num_orders = 1})});
  out.push_back({"small_uniform", gen_fact_table({.rows = 4096, .num_orders = 512})});
  // Crosses kParallelMinRows: the radix path on the sparse twin.
  out.push_back({"large_uniform", gen_fact_table({.rows = 80'000, .num_orders = 20'000})});
  out.push_back({"zipf_skew", gen_fact_table({.rows = 80'000, .num_orders = 20'000,
                                              .key_zipf_skew = 1.2})});
  // Few keys over many rows: on the sparse twin, the radix path with
  // most partitions holding a handful of heavy groups.
  out.push_back({"low_cardinality", gen_fact_table({.rows = 80'000, .num_orders = 256})});
  out.push_back({"over_threshold_cardinality",
                 gen_fact_table({.rows = 80'000, .num_orders = 2048})});
  // Crosses kDenseParallelMinRows: the key-range-partitioned dense
  // path, once with skewed (unevenly sized) partitions.
  out.push_back({"dense_partitioned",
                 gen_fact_table({.rows = 300'000, .num_orders = 75'000})});
  out.push_back({"dense_partitioned_zipf",
                 gen_fact_table({.rows = 300'000, .num_orders = 75'000,
                                 .key_zipf_skew = 1.2})});
  // Sparse twins: the same rows with order ids spread over the whole
  // int64 range, so the hash paths run at every size.
  const std::vector<std::string> twins = {"small_uniform", "large_uniform", "zipf_skew",
                                          "low_cardinality", "dense_partitioned"};
  for (std::size_t i = 0, n = out.size(); i < n; ++i) {
    if (std::find(twins.begin(), twins.end(), out[i].name) == twins.end()) continue;
    out.push_back({out[i].name + "_sparse", with_sparse_keys(out[i].table, "order_id"), true});
  }
  return out;
}

/// Pool widths 0 (= nullptr, serial), 1, 2, 4, 8.
struct Pools {
  std::vector<std::unique_ptr<ThreadPool>> owned;
  std::vector<std::pair<const char*, ThreadPool*>> all;

  Pools() {
    all.emplace_back("no_pool", nullptr);
    for (const auto& [name, width] :
         std::vector<std::pair<const char*, std::size_t>>{
             {"pool1", 1}, {"pool2", 2}, {"pool4", 4}, {"pool8", 8}}) {
      owned.push_back(std::make_unique<ThreadPool>(width));
      all.emplace_back(name, owned.back().get());
    }
  }
};

void expect_same(const std::string& ctx, const Result<Table>& want, const Result<Table>& got) {
  ASSERT_EQ(want.ok(), got.ok()) << ctx;
  if (want.ok()) {
    EXPECT_TRUE(*want == *got) << ctx << ": kernel output differs from reference";
  }
}

/// The pick group_by_kernel makes for `t` grouped by `key`.
GroupByStrategy strategy_for(const Table& t, const std::string& key) {
  return pick_group_by_strategy(t.num_rows(),
                                key_range(t.column_by_name(key).int_span()).span);
}

// Order-sensitive aggregates (double sums) and order-insensitive ones
// (count/min/max/first), so every fold kind is checked.
const std::vector<AggSpec> kMixedAggs = {{AggKind::kSum, "price", "total"},
                                         {AggKind::kCount, "", "n"},
                                         {AggKind::kAvg, "price", "avg_price"},
                                         {AggKind::kMin, "warehouse_id", "wh_min"},
                                         {AggKind::kMax, "warehouse_id", "wh_max"},
                                         {AggKind::kFirstInt, "date_id", "first_date"}};
const std::vector<AggSpec> kMergeExactAggs = {{AggKind::kCount, "", "n"},
                                              {AggKind::kMin, "quantity", "q_min"},
                                              {AggKind::kMax, "quantity", "q_max"},
                                              {AggKind::kFirstInt, "site_id", "site"}};

TEST(KernelEquivalenceGroupBy, MatchesReferenceAcrossCorpus) {
  Pools pools;
  for (const auto& [shape, t, sparse] : corpus()) {
    const GroupByStrategy pick = strategy_for(t, "order_id");
    EXPECT_EQ(pick == GroupByStrategy::kDenseSerial || pick == GroupByStrategy::kDensePartitioned,
              !sparse)
        << shape;
    const BorrowedTable bt = borrow(t.slice(0, t.num_rows()));
    for (const auto* aggs : {&kMixedAggs, &kMergeExactAggs}) {
      const auto want = reference::group_by(t, "order_id", *aggs);
      for (const auto& [pname, pool] : pools.all) {
        const std::string ctx = shape + "/" + pname;
        expect_same(ctx, want, group_by(t, "order_id", *aggs, pool));
        expect_same(ctx + "/borrowed", want, group_by(bt.view, "order_id", *aggs, pool));
      }
    }
  }
}

TEST(KernelEquivalenceGroupBy, ErrorStatusesMatchReference) {
  const Table t = gen_fact_table({.rows = 64});
  // Missing column, non-int key, first-int over a double column: the
  // kernel must fail exactly where the reference fails.
  EXPECT_FALSE(group_by(t, "ghost", kMixedAggs).ok());
  EXPECT_FALSE(group_by(t, "price", kMixedAggs).ok());
  const std::vector<AggSpec> bad = {{AggKind::kFirstInt, "price", "p"}};
  EXPECT_FALSE(reference::group_by(t, "order_id", bad).ok());
  EXPECT_FALSE(group_by(t, "order_id", bad).ok());
}

/// A table of `keys` with an int column v and a double column p that
/// vary per row, so every fold kind sees distinct values.
Table keyed_rows(std::vector<std::int64_t> keys) {
  std::vector<std::int64_t> v(keys.size());
  std::vector<double> p(keys.size());
  for (std::size_t r = 0; r < keys.size(); ++r) {
    v[r] = static_cast<std::int64_t>((r * 7919) % 1000) - 500;
    p[r] = 0.1 * static_cast<double>((r * 104729) % 9973);
  }
  return std::move(Table::make({{"k", DataType::kInt64},
                                {"v", DataType::kInt64},
                                {"p", DataType::kDouble}},
                               {Column(std::move(keys)), Column(std::move(v)),
                                Column(std::move(p))}))
      .value();
}

/// `rows` keys cycling through `lo + (i * step) % span` for i = 0.., with
/// both ends of [lo, lo + span - 1] present, in unsigned arithmetic so
/// ranges may touch the int64 limits.
std::vector<std::int64_t> spread_keys(std::int64_t lo, std::uint64_t span, std::size_t rows,
                                      std::uint64_t step = 7) {
  std::vector<std::int64_t> keys(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    keys[i] = static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + (i * step) % span);
  }
  keys[0] = lo;
  keys[rows / 2] = static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + span - 1);
  return keys;
}

const std::vector<AggSpec> kEdgeAggs = {{AggKind::kSum, "p", "sum_p"},
                                        {AggKind::kCount, "", "n"},
                                        {AggKind::kAvg, "p", "avg_p"},
                                        {AggKind::kMin, "v", "v_min"},
                                        {AggKind::kMax, "p", "p_max"},
                                        {AggKind::kFirstInt, "v", "first_v"}};

TEST(KernelEquivalenceGroupBy, DenseDomainEdgeCases) {
  constexpr std::size_t kRows = 1000;
  constexpr std::uint64_t kLimit = 4 * kRows + kDenseGroupSlack;
  struct Case {
    const char* name;
    std::vector<std::int64_t> keys;
    GroupByStrategy want;
  };
  std::vector<std::int64_t> one_key(kRows, kMin);
  std::vector<std::int64_t> limits = spread_keys(-3, 50, kRows);
  limits[10] = kMin;
  limits[20] = kMax;
  const std::vector<Case> cases = {
      {"negative", spread_keys(-700, 600, kRows), GroupByStrategy::kDenseSerial},
      {"int64_min_and_max", limits, GroupByStrategy::kSerialFlat},
      {"at_low_limit", spread_keys(kMin, 300, kRows), GroupByStrategy::kDenseSerial},
      {"at_high_limit", spread_keys(kMax - 299, 300, kRows), GroupByStrategy::kDenseSerial},
      {"span_at_threshold", spread_keys(-17, kLimit, kRows), GroupByStrategy::kDenseSerial},
      {"span_past_threshold", spread_keys(-17, kLimit + 1, kRows),
       GroupByStrategy::kSerialFlat},
      {"single_key", one_key, GroupByStrategy::kDenseSerial},
      // Large inputs: the key-range-partitioned path with lo at the
      // int64 minimum and at a negative key.
      {"partitioned_at_low_limit", spread_keys(kMin, 90'000, 300'000, 1),
       GroupByStrategy::kDensePartitioned},
      {"partitioned_negative", spread_keys(-45'000, 90'000, 300'000, 104'729),
       GroupByStrategy::kDensePartitioned},
  };
  Pools pools;
  for (const Case& c : cases) {
    const Table t = keyed_rows(c.keys);
    EXPECT_EQ(strategy_for(t, "k"), c.want) << c.name;
    const auto want = reference::group_by(t, "k", kEdgeAggs);
    ASSERT_TRUE(want.ok()) << c.name;
    for (const auto& [pname, pool] : pools.all) {
      expect_same(std::string(c.name) + "/" + pname, want, group_by(t, "k", kEdgeAggs, pool));
    }
  }
}

TEST(KernelEquivalenceJoin, AllKindsMatchReferenceAcrossCorpus) {
  Pools pools;
  const Table dense_dim = gen_dim_table(/*rows=*/1500, /*attr_domain=*/4);
  const Table sparse_dim = with_sparse_keys(dense_dim, "id");
  for (const auto& [shape, t, sparse] : corpus()) {
    const Table& dim = sparse ? sparse_dim : dense_dim;
    const BorrowedTable bt = borrow(t.slice(0, t.num_rows()));
    for (const JoinKind kind :
         {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
      const auto want = reference::hash_join(t, "order_id", dim, "id", kind);
      for (const auto& [pname, pool] : pools.all) {
        const std::string ctx =
            shape + "/kind" + std::to_string(static_cast<int>(kind)) + "/" + pname;
        expect_same(ctx, want, hash_join(t, "order_id", dim, "id", kind, pool));
        expect_same(ctx + "/borrowed", want,
                    hash_join(bt.view, "order_id", dim, "id", kind, pool));
      }
    }
  }
}

TEST(KernelEquivalenceJoin, EmptyBuildSide) {
  const Table t = gen_fact_table({.rows = 50'000});
  const Table empty_dim = gen_dim_table(0, 4);
  ThreadPool pool(4);
  for (const JoinKind kind :
       {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    expect_same("empty build", reference::hash_join(t, "order_id", empty_dim, "id", kind),
                hash_join(t, "order_id", empty_dim, "id", kind, &pool));
  }
}

TEST(KernelEquivalenceJoin, DenseMembershipEdgeCases) {
  constexpr std::uint64_t kBits = kDenseMembershipMaxSpan;
  struct Case {
    const char* name;
    std::vector<std::int64_t> build;
    JoinBuildStrategy want;  // for semi and anti joins
  };
  std::vector<std::int64_t> limits = spread_keys(-40, 100, 500);
  limits.push_back(kMin);
  limits.push_back(kMax);
  const std::vector<Case> cases = {
      {"negative", spread_keys(-900, 700, 400, 3), JoinBuildStrategy::kDenseBits},
      {"span_at_threshold", spread_keys(-1000, kBits, 3000, 977), JoinBuildStrategy::kDenseBits},
      {"span_past_threshold", spread_keys(-1000, kBits + 1, 3000, 977),
       JoinBuildStrategy::kHashTable},
      {"at_low_limit", spread_keys(kMin, 200, 300, 3), JoinBuildStrategy::kDenseBits},
      {"at_high_limit", spread_keys(kMax - 199, 200, 300, 3), JoinBuildStrategy::kDenseBits},
      {"int64_min_and_max", limits, JoinBuildStrategy::kHashTable},
      {"single_key", std::vector<std::int64_t>(50, 12), JoinBuildStrategy::kDenseBits},
      {"empty", {}, JoinBuildStrategy::kDenseBits},
  };
  // Probe keys inside every build domain above, around their edges and
  // far outside them (both int64 limits, and offsets that wrap).
  std::vector<std::int64_t> probe_keys;
  for (std::int64_t k = -1200; k < 1200; ++k) probe_keys.push_back(k);
  for (std::int64_t d = 0; d < 300; ++d) {
    probe_keys.push_back(kMin + d);
    probe_keys.push_back(kMax - d);
  }
  for (const std::int64_t k : {std::int64_t{-1000} + static_cast<std::int64_t>(kBits) - 1,
                               std::int64_t{-1000} + static_cast<std::int64_t>(kBits),
                               std::int64_t{-1000} + static_cast<std::int64_t>(kBits) + 1}) {
    probe_keys.push_back(k);
  }
  const Table left = keyed_rows(probe_keys);
  Pools pools;
  for (const Case& c : cases) {
    const std::size_t n = c.build.size();
    std::vector<std::int64_t> attr(n);
    for (std::size_t r = 0; r < n; ++r) attr[r] = static_cast<std::int64_t>(r);
    const Table right = table_of_ints({{"id", c.build}, {"attr", std::move(attr)}});
    const std::uint64_t span = key_range(right.column_by_name("id").int_span()).span;
    for (const JoinKind kind :
         {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
      EXPECT_EQ(pick_join_build_strategy(kind, span),
                kind == JoinKind::kInner ? JoinBuildStrategy::kHashTable : c.want)
          << c.name;
      const auto want = reference::hash_join(left, "k", right, "id", kind);
      ASSERT_TRUE(want.ok()) << c.name;
      for (const auto& [pname, pool] : pools.all) {
        expect_same(std::string(c.name) + "/kind" + std::to_string(static_cast<int>(kind)) +
                        "/" + pname,
                    want, hash_join(left, "k", right, "id", kind, pool));
      }
    }
  }
}

TEST(KernelEquivalenceJoin, StreamMatchesReference) {
  // hash_join_stream builds once and probes each chunk; the
  // concatenation must equal the materialized reference join, on a
  // dense build (membership bits for semi/anti) and a sparse one.
  const Table dense_fact = gen_fact_table({.rows = 50'000, .num_orders = 12'000});
  const Table dense_dim = gen_dim_table(6000, 4);
  const Table sparse_fact = with_sparse_keys(dense_fact, "order_id");
  const Table sparse_dim = with_sparse_keys(dense_dim, "id");
  Pools pools;
  for (const auto& [name, fact, dim] :
       {std::tuple<const char*, const Table*, const Table*>{"dense", &dense_fact, &dense_dim},
        {"sparse", &sparse_fact, &sparse_dim}}) {
    for (const JoinKind kind :
         {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
      const auto want = reference::hash_join(*fact, "order_id", *dim, "id", kind);
      for (const auto& [pname, pool] : pools.all) {
        // Uneven chunks, including an empty one, in ascending row order.
        const std::vector<std::size_t> bounds = {0, 1, 7000, 7000, 31'000, 50'000};
        std::size_t next = 1;
        const TableChunkFn chunks = [&]() -> Result<std::optional<Table>> {
          if (next == bounds.size()) return std::optional<Table>();
          const std::size_t lo = bounds[next - 1], hi = bounds[next++];
          return std::optional<Table>(fact->slice(lo, hi - lo));
        };
        expect_same(std::string(name) + "/kind" + std::to_string(static_cast<int>(kind)) +
                        "/" + pname,
                    want, hash_join_stream(chunks, "order_id", *dim, "id", kind, pool));
      }
    }
  }
}

TEST(KernelEquivalenceFilter, FusedPredicatesMatchReferenceAcrossCorpus) {
  Pools pools;
  const std::vector<std::vector<ColumnPred>> pred_sets = {
      {},  // zero predicates keep every row
      {pred_double("price", CmpOp::kGt, 50.0)},
      {pred_double("price", CmpOp::kGt, 50.0), pred_int("warehouse_id", CmpOp::kLt, 7)},
      {pred_int("quantity", CmpOp::kGe, 1), pred_int("site_id", CmpOp::kNe, 3),
       pred_double("price", CmpOp::kLe, 90.0)},
      {pred_double("price", CmpOp::kGt, 1e9)},  // selects nothing
      {pred_cols("quantity", CmpOp::kLt, "warehouse_id", 2.0)},  // widens to double
  };
  for (const auto& [shape, t, sparse] : corpus()) {
    const BorrowedTable bt = borrow(t.slice(0, t.num_rows()));
    for (std::size_t s = 0; s < pred_sets.size(); ++s) {
      const auto want = reference::filter_cols(t, pred_sets[s]);
      for (const auto& [pname, pool] : pools.all) {
        const std::string ctx = shape + "/preds" + std::to_string(s) + "/" + pname;
        expect_same(ctx, want, filter_cols(t, pred_sets[s], pool));
        expect_same(ctx + "/borrowed", want, filter_cols(bt.view, pred_sets[s], pool));
      }
    }
  }
}

TEST(KernelEquivalenceFilter, IntDomainComparisonIsExact) {
  // 2^53 + 1 is not representable as a double: an int64 comparison
  // must distinguish it from 2^53 where a double comparison cannot.
  const std::int64_t big = (std::int64_t{1} << 53) + 1;
  const Table t = table_of_ints({{"v", {big, big - 1, big + 1}}});
  const auto out = filter_cols(t, {pred_int("v", CmpOp::kEq, big)});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->column_by_name("v").int_at(0), big);
}

// ---------------------------------------------------------------------------
// Strategy-pick pinning: the choice is part of the contract (tests fail
// loudly if a threshold change silently reroutes queries).

/// A key span no dense path takes (the full int64 range).
constexpr std::uint64_t kSparseSpan = std::numeric_limits<std::uint64_t>::max();

TEST(GroupByStrategyTest, SmallInputsStaySerial) {
  EXPECT_EQ(pick_group_by_strategy(kParallelMinRows, kSparseSpan),
            GroupByStrategy::kSerialFlat);
}

TEST(GroupByStrategyTest, LargeInputsRadixEvenWithoutPool) {
  EXPECT_EQ(pick_group_by_strategy(kParallelMinRows + 1, kSparseSpan),
            GroupByStrategy::kRadixPartitioned);
}

TEST(GroupByStrategyTest, LowCardinalityExactAggsTakeRadix) {
  // A large input with few sparse keys and only order-insensitive
  // aggregates still takes the radix path, pool or not, and matches
  // the reference.
  const Table low =
      with_sparse_keys(gen_fact_table({.rows = 80'000, .num_orders = 64}), "order_id");
  EXPECT_EQ(strategy_for(low, "order_id"), GroupByStrategy::kRadixPartitioned);
  ThreadPool pool(4);
  const auto want = reference::group_by(low, "order_id", kMergeExactAggs);
  expect_same("pool4", want, group_by(low, "order_id", kMergeExactAggs, &pool));
  expect_same("no_pool", want, group_by(low, "order_id", kMergeExactAggs, nullptr));
}

TEST(GroupByStrategyTest, LowCardinalityDenseKeysTakeDenseSerial) {
  // The same shape on its dense keys: 64 slots, no hash table.
  const Table low = gen_fact_table({.rows = 80'000, .num_orders = 64});
  EXPECT_EQ(strategy_for(low, "order_id"), GroupByStrategy::kDenseSerial);
  ThreadPool pool(4);
  const auto want = reference::group_by(low, "order_id", kMergeExactAggs);
  expect_same("pool4", want, group_by(low, "order_id", kMergeExactAggs, &pool));
  expect_same("no_pool", want, group_by(low, "order_id", kMergeExactAggs, nullptr));
}

TEST(GroupByStrategyTest, SpanThresholdsPickDensePaths) {
  // span <= 4 * rows + slack, and never above the cap.
  for (const std::size_t rows : {std::size_t{0}, std::size_t{1}, std::size_t{1000},
                                 kParallelMinRows, kParallelMinRows + 1}) {
    const std::uint64_t limit = 4 * std::uint64_t{rows} + kDenseGroupSlack;
    EXPECT_EQ(pick_group_by_strategy(rows, limit), GroupByStrategy::kDenseSerial) << rows;
    EXPECT_EQ(pick_group_by_strategy(rows, limit + 1),
              rows <= kParallelMinRows ? GroupByStrategy::kSerialFlat
                                       : GroupByStrategy::kRadixPartitioned)
        << rows;
  }
  EXPECT_EQ(pick_group_by_strategy(0, 0), GroupByStrategy::kDenseSerial);
  // Dense inputs go key-range-partitioned above kDenseParallelMinRows.
  EXPECT_EQ(pick_group_by_strategy(kDenseParallelMinRows, 1000), GroupByStrategy::kDenseSerial);
  EXPECT_EQ(pick_group_by_strategy(kDenseParallelMinRows + 1, 1000),
            GroupByStrategy::kDensePartitioned);
  // The cap binds once 4 * rows + slack exceeds it.
  const std::size_t big = std::size_t{1} << 21;
  EXPECT_EQ(pick_group_by_strategy(big, kDenseGroupMaxSpan), GroupByStrategy::kDensePartitioned);
  EXPECT_EQ(pick_group_by_strategy(big, kDenseGroupMaxSpan + 1),
            GroupByStrategy::kRadixPartitioned);
  EXPECT_EQ(pick_group_by_strategy(big, kSparseSpan), GroupByStrategy::kRadixPartitioned);
}

TEST(GroupByStrategyTest, KeyRangeSpanHandlesInt64Limits) {
  const auto range_of = [](std::vector<std::int64_t> v, ThreadPool* pool = nullptr) {
    const Table t = table_of_ints({{"k", std::move(v)}});
    return key_range(t.column(0).int_span(), pool);
  };
  EXPECT_EQ(range_of({}).span, 0u);
  EXPECT_EQ(range_of({kMin}).span, 1u);
  EXPECT_EQ(range_of({kMax, kMax}).span, 1u);
  EXPECT_EQ(range_of({-1, 1, 0}).span, 3u);
  // The full range saturates instead of wrapping to 0.
  const KeyRange full = range_of({0, kMax, kMin});
  EXPECT_EQ(full.lo, kMin);
  EXPECT_EQ(full.hi, kMax);
  EXPECT_EQ(full.span, kSparseSpan);
  EXPECT_EQ(range_of({kMin, kMax - 1}).span, kSparseSpan);  // 2^64 - 1 exactly
  EXPECT_EQ(range_of({kMin, -1}).span, std::uint64_t{1} << 63);
  EXPECT_EQ(range_of({kMin + 1, kMax}).span, kSparseSpan);
  // The chunk-parallel pass agrees with the serial one.
  std::vector<std::int64_t> many = spread_keys(-123'456, 1'000'003, 300'000, 7919);
  many[200'001] = kMax;
  ThreadPool pool(4);
  const KeyRange serial = range_of(many);
  const KeyRange parallel = range_of(many, &pool);
  EXPECT_EQ(serial.lo, -123'456);
  EXPECT_EQ(serial.hi, kMax);
  EXPECT_EQ(parallel.lo, serial.lo);
  EXPECT_EQ(parallel.hi, serial.hi);
  EXPECT_EQ(parallel.span, serial.span);
}

TEST(GroupByStrategyTest, EngineKeysTakeDensePaths) {
  // The engine queries' keys are dense surrogate keys: their group-bys
  // index slots and their semi/anti joins test membership bits.
  const Table fact = gen_fact_table({.rows = 100'000, .num_orders = 45'000});
  for (const char* key : {"order_id", "date_id", "site_id", "warehouse_id"}) {
    EXPECT_EQ(strategy_for(fact, key), GroupByStrategy::kDenseSerial) << key;
  }
  const Table dim = gen_dim_table(365, 4);
  const std::uint64_t span = key_range(dim.column_by_name("id").int_span()).span;
  EXPECT_EQ(pick_join_build_strategy(JoinKind::kLeftSemi, span), JoinBuildStrategy::kDenseBits);
  EXPECT_EQ(pick_join_build_strategy(JoinKind::kLeftAnti, span), JoinBuildStrategy::kDenseBits);
  EXPECT_EQ(pick_join_build_strategy(JoinKind::kInner, span), JoinBuildStrategy::kHashTable);
  EXPECT_EQ(pick_join_build_strategy(JoinKind::kLeftSemi, kDenseMembershipMaxSpan + 1),
            JoinBuildStrategy::kHashTable);
}

}  // namespace
}  // namespace ditto::exec
