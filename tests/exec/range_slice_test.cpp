// exec::range_slice: a scan task's own row range of a shared source
// table, borrowed instead of copied. The slices must equal the source's
// row ranges [i*rows/n, (i+1)*rows/n), alias the source's fixed-width
// memory, and keep that memory alive on their own.
#include "exec/partition.h"

#include <gtest/gtest.h>

#include <memory>

#include "exec/engine.h"
#include "storage/sim_store.h"
#include "workload/engine_queries.h"

namespace ditto::exec {
namespace {

/// int64 + double + string columns. With `borrowed`, the fixed-width
/// columns are borrowed views of a separate buffer (strings never are).
std::shared_ptr<const Table> source(std::size_t rows, bool borrowed) {
  std::vector<std::int64_t> k(rows);
  std::vector<double> d(rows);
  std::vector<std::string> s(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    k[i] = static_cast<std::int64_t>(i * 7 % 113);
    d[i] = static_cast<double>(i) * 0.25;
    s[i] = "row-" + std::to_string(i);
  }
  Column kc(std::move(k));
  Column dc(std::move(d));
  if (borrowed) {
    kc = kc.borrowed_copy();
    dc = dc.borrowed_copy();
  }
  auto t = Table::make(
      {{"k", DataType::kInt64}, {"d", DataType::kDouble}, {"s", DataType::kString}},
      {std::move(kc), std::move(dc), Column(std::move(s))});
  EXPECT_TRUE(t.ok());
  return std::make_shared<const Table>(std::move(t).value());
}

/// Rows [i*rows/n, (i+1)*rows/n) of `src`, copied by Table::slice.
Table row_range(const Table& src, std::size_t i, std::size_t n) {
  const std::size_t rows = src.num_rows();
  return src.slice(rows * i / n, rows * (i + 1) / n - rows * i / n);
}

/// Concatenation of range_slice(src, i, n) for i in [0, n), checking
/// each slice against the i-th row range on the way.
Table concat_slices(const std::shared_ptr<const Table>& src, std::size_t n) {
  std::vector<Table> slices;
  for (std::size_t i = 0; i < n; ++i) {
    const Table slice = range_slice(src, i, n);
    const Table part = row_range(*src, i, n);
    EXPECT_EQ(slice, part) << "slice " << i << " of " << n;
    EXPECT_EQ(slice.byte_size(), part.byte_size()) << "slice " << i << " of " << n;
    slices.push_back(slice);
  }
  auto all = concat_tables(std::move(slices));
  EXPECT_TRUE(all.ok());
  return all.ok() ? std::move(all).value() : Table(src->schema());
}

TEST(RangeSliceTest, SlicesEqualRangePartitionAndConcatenateToSource) {
  constexpr std::size_t kRows = 1000;
  for (const bool borrowed : {false, true}) {
    const auto src = source(kRows, borrowed);
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7}, kRows + 2}) {
      EXPECT_EQ(concat_slices(src, n), *src) << "n=" << n << " borrowed=" << borrowed;
    }
  }
}

TEST(RangeSliceTest, EmptySources) {
  for (const bool borrowed : {false, true}) {
    const auto src = source(0, borrowed);
    for (const std::size_t n : {1, 3}) {
      EXPECT_EQ(concat_slices(src, n), *src);
      const Table slice = range_slice(src, n - 1, n);
      EXPECT_EQ(slice.num_rows(), 0u);
      EXPECT_EQ(slice.schema(), src->schema());
    }
  }
  // A table with no columns at all.
  const auto none = std::make_shared<const Table>();
  EXPECT_EQ(range_slice(none, 0, 2).num_columns(), 0u);
}

TEST(RangeSliceTest, FixedWidthColumnsAliasTheSource) {
  constexpr std::size_t kRows = 100;
  constexpr std::size_t kParts = 3;
  for (const bool borrowed : {false, true}) {
    const auto src = source(kRows, borrowed);
    const std::int64_t* ints = src->column(0).int_span().data();
    const double* doubles = src->column(1).double_span().data();
    for (std::size_t i = 0; i < kParts; ++i) {
      const std::size_t lo = kRows * i / kParts;
      const Table slice = range_slice(src, i, kParts);
      EXPECT_TRUE(slice.column(0).is_borrowed());
      EXPECT_TRUE(slice.column(1).is_borrowed());
      EXPECT_FALSE(slice.column(2).is_borrowed());
      EXPECT_EQ(slice.column(0).int_span().data(), ints + lo);
      EXPECT_EQ(slice.column(1).double_span().data(), doubles + lo);
    }
  }
}

TEST(RangeSliceTest, SliceOutlivesTheCallersReference) {
  for (const bool borrowed : {false, true}) {
    auto src = source(50, borrowed);
    const Table expected = row_range(*src, 2, 4);
    const std::weak_ptr<const Table> watch = src;
    Table slice = range_slice(src, 2, 4);
    src.reset();
    // An owned source lives on inside the slice; a borrowed one is
    // freed, and the slice keeps the buffer its columns view instead.
    EXPECT_EQ(watch.expired(), borrowed);
    EXPECT_EQ(slice, expected);
    slice = Table();
    EXPECT_TRUE(watch.expired());
  }
}

cluster::PlacementPlan spread_plan(const JobDag& dag, int dop, int servers) {
  cluster::PlacementPlan plan;
  plan.dop.assign(dag.num_stages(), dop);
  plan.task_server.resize(dag.num_stages());
  int next = 0;
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    for (int t = 0; t < dop; ++t) {
      plan.task_server[s].push_back(static_cast<ServerId>(next++ % servers));
    }
  }
  return plan;
}

TEST(RangeSliceEngineTest, SourcesOwnedOnlyByBindingsMatchReference) {
  // The job's own handles to its source tables are dropped before the
  // run, so the scan bindings' captures are the only owners: every
  // borrowed scan slice must keep its source alive through the
  // exchange and the downstream stages.
  const workload::EngineQuerySpec q95_spec{.fact_rows = 20000, .num_orders = 3000, .seed = 1234};
  workload::EngineJob q95 = workload::build_q95_engine_job(q95_spec);
  const workload::EngineAnswer q95_expected = workload::q95_engine_reference(q95, q95_spec);
  const std::weak_ptr<const Table> sales = q95.sources.at("web_sales");
  q95.sources.clear();
  ASSERT_FALSE(sales.expired());
  {
    auto store = storage::make_instant_store();
    const cluster::PlacementPlan plan = spread_plan(q95.dag, 3, 2);
    MiniEngine engine(q95.dag, plan, *store);
    const auto result = engine.run(q95.bindings);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto answer = workload::engine_answer_from_sink(result->sink_outputs.at(q95.sink));
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->rows, q95_expected.rows);
    EXPECT_NEAR(answer->value, q95_expected.value, 1e-6);
  }
  q95.bindings.clear();
  EXPECT_TRUE(sales.expired());

  workload::EngineQuerySpec spec;
  spec.fact_rows = 15000;
  spec.num_orders = 2500;
  workload::EngineJob q16 = workload::build_q16_engine_job(spec);
  const workload::EngineAnswer expected = workload::q16_engine_reference(q16, spec);
  q16.sources.clear();
  auto store = storage::make_instant_store();
  const cluster::PlacementPlan plan = spread_plan(q16.dag, 4, 3);
  MiniEngine engine(q16.dag, plan, *store);
  const auto result = engine.run(q16.bindings);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto answer = workload::engine_answer_from_sink(result->sink_outputs.at(q16.sink));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->rows, expected.rows);
  EXPECT_NEAR(answer->value, expected.value, 1e-6);
}

}  // namespace
}  // namespace ditto::exec
