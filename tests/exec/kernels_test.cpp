// Kernel-equivalence corpus: every columnar kernel must produce
// BIT-IDENTICAL output to its retained row-at-a-time reference
// (operators.h, namespace reference) — same schema, same row order,
// same floating-point accumulation — across owned and borrowed
// columns, every pool width, and the adversarial table shapes below
// (empty, single row, all-equal keys, Zipf skew, low and moderate
// cardinality on large inputs). The TSan CI job runs this corpus under
// --gtest_filter='KernelEquivalence*' to also shake out data races in
// the partition-parallel paths.
#include "exec/kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "exec/datagen.h"
#include "exec/operators.h"
#include "exec/table.h"

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

/// The corpus of table shapes every kernel is checked against.
std::vector<std::pair<const char*, Table>> corpus() {
  std::vector<std::pair<const char*, Table>> out;
  out.emplace_back("empty", gen_fact_table({.rows = 0}));
  out.emplace_back("single_row", gen_fact_table({.rows = 1}));
  out.emplace_back("all_equal_keys", gen_fact_table({.rows = 5000, .num_orders = 1}));
  out.emplace_back("small_uniform", gen_fact_table({.rows = 4096, .num_orders = 512}));
  // Crosses kParallelMinRows, so the radix path runs for real.
  out.emplace_back("large_uniform",
                   gen_fact_table({.rows = 80'000, .num_orders = 20'000}));
  out.emplace_back("zipf_skew",
                   gen_fact_table({.rows = 80'000, .num_orders = 20'000,
                                   .key_zipf_skew = 1.2}));
  // Few keys over many rows: the radix path with most partitions
  // holding a handful of heavy groups.
  out.emplace_back("low_cardinality", gen_fact_table({.rows = 80'000, .num_orders = 256}));
  out.emplace_back("over_threshold_cardinality",
                   gen_fact_table({.rows = 80'000, .num_orders = 2048}));
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

void expect_same(const char* ctx, const Result<Table>& want, const Result<Table>& got) {
  ASSERT_EQ(want.ok(), got.ok()) << ctx;
  if (want.ok()) {
    EXPECT_TRUE(*want == *got) << ctx << ": kernel output differs from reference";
  }
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
  for (const auto& [shape, t] : corpus()) {
    const BorrowedTable bt = borrow(t.slice(0, t.num_rows()));
    for (const auto* aggs : {&kMixedAggs, &kMergeExactAggs}) {
      const auto want = reference::group_by(t, "order_id", *aggs);
      for (const auto& [pname, pool] : pools.all) {
        const std::string ctx = std::string(shape) + "/" + pname;
        expect_same(ctx.c_str(), want, group_by(t, "order_id", *aggs, pool));
        expect_same((ctx + "/borrowed").c_str(), want,
                    group_by(bt.view, "order_id", *aggs, pool));
      }
    }
  }
}

TEST(KernelEquivalenceGroupBy, MultiKeyMatchesReference) {
  Pools pools;
  for (const auto& [shape, t] : corpus()) {
    const auto want =
        reference::group_by_multi(t, {"warehouse_id", "site_id"}, kMixedAggs);
    for (const auto& [pname, pool] : pools.all) {
      const std::string ctx = std::string(shape) + "/" + pname;
      expect_same(ctx.c_str(),
                  want, group_by_multi(t, {"warehouse_id", "site_id"}, kMixedAggs, pool));
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

TEST(KernelEquivalenceJoin, AllKindsMatchReferenceAcrossCorpus) {
  Pools pools;
  const Table dim = gen_dim_table(/*rows=*/1500, /*attr_domain=*/4);
  for (const auto& [shape, t] : corpus()) {
    const BorrowedTable bt = borrow(t.slice(0, t.num_rows()));
    for (const JoinKind kind :
         {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
      const auto want = reference::hash_join(t, "order_id", dim, "id", kind);
      for (const auto& [pname, pool] : pools.all) {
        const std::string ctx = std::string(shape) + "/kind" +
                                std::to_string(static_cast<int>(kind)) + "/" + pname;
        expect_same(ctx.c_str(), want,
                    hash_join(t, "order_id", dim, "id", kind, pool));
        expect_same((ctx + "/borrowed").c_str(), want,
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
  for (const auto& [shape, t] : corpus()) {
    const BorrowedTable bt = borrow(t.slice(0, t.num_rows()));
    for (std::size_t s = 0; s < pred_sets.size(); ++s) {
      const auto want = reference::filter_cols(t, pred_sets[s]);
      for (const auto& [pname, pool] : pools.all) {
        const std::string ctx =
            std::string(shape) + "/preds" + std::to_string(s) + "/" + pname;
        expect_same(ctx.c_str(), want, filter_cols(t, pred_sets[s], pool));
        expect_same((ctx + "/borrowed").c_str(), want,
                    filter_cols(bt.view, pred_sets[s], pool));
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

TEST(KernelEquivalenceTopK, TieOrderMatchesStableSortFormulation) {
  // Duplicate values everywhere: the bounded heap must keep EARLIER
  // rows on ties, exactly like stable-sort-then-truncate.
  std::vector<std::int64_t> vals, tag;
  for (std::int64_t r = 0; r < 4000; ++r) {
    vals.push_back(r % 7);
    tag.push_back(r);
  }
  const Table t = table_of_ints({{"v", std::move(vals)}, {"tag", std::move(tag)}});
  for (const bool desc : {true, false}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{100}, std::size_t{5000}}) {
      const auto want = reference::top_k_by_int(t, "v", k, desc);
      const auto got = top_k_by_int(t, "v", k, desc);
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_TRUE(*want == *got) << "k=" << k << " desc=" << desc;
    }
  }
}

// ---------------------------------------------------------------------------
// Strategy-pick pinning: the choice is part of the contract (tests fail
// loudly if a threshold change silently reroutes queries).

TEST(GroupByStrategyTest, SmallInputsStaySerial) {
  EXPECT_EQ(pick_group_by_strategy(kParallelMinRows), GroupByStrategy::kSerialFlat);
}

TEST(GroupByStrategyTest, LargeInputsRadixEvenWithoutPool) {
  EXPECT_EQ(pick_group_by_strategy(kParallelMinRows + 1), GroupByStrategy::kRadixPartitioned);
}

TEST(GroupByStrategyTest, LowCardinalityExactAggsTakeRadix) {
  // A large input with few keys and only order-insensitive aggregates
  // still takes the radix path, pool or not, and matches the reference.
  const Table low = gen_fact_table({.rows = 80'000, .num_orders = 64});
  EXPECT_EQ(pick_group_by_strategy(low.num_rows()), GroupByStrategy::kRadixPartitioned);
  ThreadPool pool(4);
  const auto want = reference::group_by(low, "order_id", kMergeExactAggs);
  expect_same("pool4", want, group_by(low, "order_id", kMergeExactAggs, &pool));
  expect_same("no_pool", want, group_by(low, "order_id", kMergeExactAggs, nullptr));
}

}  // namespace
}  // namespace ditto::exec
