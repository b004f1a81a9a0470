#include "workload/engine_queries.h"

#include <algorithm>

#include "dag/dag_algorithms.h"
#include "exec/datagen.h"
#include "exec/operators.h"
#include "exec/partition.h"

namespace ditto::workload {

using exec::AggKind;
using exec::CmpOp;
using exec::JoinKind;
using exec::StageBinding;
using exec::Table;

namespace {

// The miniatures' fixed knobs (EngineQuerySpec carries only the data
// size and seed).
constexpr std::int64_t kNumWarehouses = 12;  ///< doubles as the store domain (Q1)
constexpr std::int64_t kNumDates = 120;
constexpr std::int64_t kNumSites = 24;
constexpr double kReturnFraction = 0.45;
constexpr double kPriceThreshold = 100.0;
constexpr double kQ1AvgFactor = 1.2;         ///< Q1's "above 1.2x store average"
constexpr std::int64_t kDimAttrAllowed = 0;  ///< dimension filter value
constexpr std::int64_t kSiteAttrExcluded = 2;  ///< Q95's map4 excludes these sites

/// Uniform answer format: one row, columns (rows:int64, value:double).
Result<Table> summarize(std::int64_t rows, double value) {
  return Table::make(
      {{"rows", exec::DataType::kInt64}, {"value", exec::DataType::kDouble}},
      {exec::Column(std::vector<std::int64_t>{rows}), exec::Column(std::vector<double>{value})});
}

Result<Table> summarize_orders(const Table& t, const std::string& value_col) {
  double total = 0.0;
  if (t.column_index(value_col) >= 0) {
    for (double v : t.column_by_name(value_col).double_span()) total += v;
  }
  return summarize(static_cast<std::int64_t>(t.num_rows()), total);
}

/// Orders of `t` (keyed by order_id) touching >= 2 distinct warehouses.
Result<Table> multi_warehouse(const Table& t) {
  DITTO_ASSIGN_OR_RETURN(Table grouped,
                         exec::group_by(t, "order_id",
                                        {{AggKind::kMin, "warehouse_id", "wh_min"},
                                         {AggKind::kMax, "warehouse_id", "wh_max"}}));
  return exec::filter_cols(grouped, {exec::pred_cols("wh_min", CmpOp::kLt, "wh_max")});
}

exec::FactTableSpec fact_spec_from(const EngineQuerySpec& spec) {
  exec::FactTableSpec f;
  f.rows = spec.fact_rows;
  f.num_orders = spec.num_orders;
  f.num_warehouses = kNumWarehouses;
  f.num_dates = kNumDates;
  f.num_sites = kNumSites;
  f.seed = spec.seed;
  return f;
}

/// The scan stage of every engine query: task t of dop reads only its
/// own row range of `src` (exec::range_slice, borrowed, no copy), keeps
/// the rows satisfying all `preds`, and emits `columns`; `key` is the
/// binding's output key.
StageBinding scan_binding(std::shared_ptr<const Table> src,
                          std::vector<exec::ColumnPred> preds,
                          std::vector<std::string> columns, std::string key) {
  // Narrow to the output plus the tested columns before filtering, so
  // the filter gathers only columns that are kept or tested.
  std::vector<std::string> narrow = columns;
  for (const exec::ColumnPred& p : preds) {
    for (const std::string& c : {p.column, p.rhs_column}) {
      if (!c.empty() && std::find(narrow.begin(), narrow.end(), c) == narrow.end()) {
        narrow.push_back(c);
      }
    }
  }
  StageBinding b;
  b.fn = [src = std::move(src), preds = std::move(preds), columns = std::move(columns),
          narrow = std::move(narrow)](int task, int dop,
                                      const std::vector<Table>&) -> Result<Table> {
    DITTO_ASSIGN_OR_RETURN(Table scanned,
                           exec::project(exec::range_slice(src, task, dop), narrow));
    if (preds.empty()) return scanned;
    DITTO_ASSIGN_OR_RETURN(Table kept, exec::filter_cols(scanned, preds));
    if (narrow.size() == columns.size()) return kept;
    return exec::project(kept, columns);
  };
  b.output_key = std::move(key);
  return b;
}

/// Generic data-volume annotation (Q1/Q16/Q94): source stages take
/// their real table sizes; downstream volumes decay by an
/// operator-class selectivity; edges carry the producer's output.
void annotate_engine_volumes(EngineJob& job) {
  JobDag& dag = job.dag;
  // Source stages are measured by running each scan ONCE at dop 1.
  const auto selectivity = [](const std::string& op_name) {
    if (op_name.rfind("scan", 0) == 0) return 0.6;
    if (op_name.rfind("group", 0) == 0 || op_name.rfind("agg", 0) == 0) return 0.25;
    return 0.4;  // joins and the rest
  };
  std::vector<Bytes> inflow(dag.num_stages(), 0);
  for (StageId s : topological_order(dag)) {
    Stage& stage = dag.stage(s);
    if (dag.parents(s).empty()) {
      const auto probe = job.bindings.at(s).fn(0, 1, {});
      const Bytes in = probe.ok() ? probe->byte_size() * 2 : 1_MB;  // pre-filter estimate
      stage.set_input_bytes(in);
      inflow[s] = in;
    }
    const Bytes out = static_cast<Bytes>(
        static_cast<double>(std::max<Bytes>(inflow[s], 64)) * selectivity(stage.name()));
    stage.set_output_bytes(out);
    for (StageId c : dag.children(s)) {
      dag.edge_between(s, c).bytes = out;
      inflow[c] += out;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Q1
// ---------------------------------------------------------------------------

EngineJob build_q1_engine_job(const EngineQuerySpec& spec) {
  EngineJob job;
  // store_returns miniature: order_id plays the customer, warehouse_id
  // the store, price the return amount.
  auto returns = std::make_shared<const Table>(exec::gen_fact_table(fact_spec_from(spec)));
  auto dates = std::make_shared<const Table>(
      exec::gen_dim_table(static_cast<std::size_t>(kNumDates), 3, spec.seed + 2));
  auto customers = std::make_shared<const Table>(
      exec::gen_dim_table(static_cast<std::size_t>(spec.num_orders), 2, spec.seed + 3));
  job.sources = {{"store_returns", returns}, {"date_dim", dates}, {"customer", customers}};

  JobDag dag("Q1-engine");
  const StageId scan_returns = dag.add_stage("scan_returns");
  const StageId scan_dates = dag.add_stage("scan_dates");
  const StageId join_dates = dag.add_stage("join_dates");
  const StageId groupby_customer = dag.add_stage("groupby_customer");
  const StageId store_avg = dag.add_stage("store_avg");
  const StageId scan_customer = dag.add_stage("scan_customer");
  const StageId final_join = dag.add_stage("final_join");
  (void)dag.add_edge(scan_returns, join_dates, ExchangeKind::kShuffle);
  (void)dag.add_edge(scan_dates, join_dates, ExchangeKind::kAllGather);
  (void)dag.add_edge(join_dates, groupby_customer, ExchangeKind::kShuffle);
  (void)dag.add_edge(groupby_customer, store_avg, ExchangeKind::kShuffle);
  (void)dag.add_edge(groupby_customer, final_join, ExchangeKind::kShuffle);
  (void)dag.add_edge(store_avg, final_join, ExchangeKind::kBroadcast);
  (void)dag.add_edge(scan_customer, final_join, ExchangeKind::kShuffle);
  job.dag = std::move(dag);
  job.sink = final_join;

  job.bindings[scan_returns] = scan_binding(
      returns, {}, {"order_id", "warehouse_id", "date_id", "price"}, "order_id");
  job.bindings[scan_dates] =
      scan_binding(dates, {exec::pred_int("attr", CmpOp::kEq, kDimAttrAllowed)}, {"id"}, "");

  job.bindings[join_dates] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> {
        return exec::hash_join(in.at(0), "date_id", in.at(1), "id", JoinKind::kLeftSemi);
      },
      "order_id",
      {}};

  // Customer totals flow to TWO consumers under DIFFERENT keys.
  StageBinding totals;
  totals.fn = [](int, int, const std::vector<Table>& in) -> Result<Table> {
    return exec::group_by(in.at(0), "order_id",
                          {{AggKind::kSum, "price", "total"},
                           {AggKind::kFirstInt, "warehouse_id", "warehouse_id"}});
  };
  totals.output_key = "order_id";                       // to final_join
  totals.edge_keys[store_avg] = "warehouse_id";         // to store_avg
  job.bindings[groupby_customer] = std::move(totals);

  job.bindings[store_avg] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> {
        return exec::group_by(in.at(0), "warehouse_id",
                              {{AggKind::kAvg, "total", "avg_total"}});
      },
      "", {}};

  job.bindings[scan_customer] = scan_binding(customers, {}, {"id"}, "id");

  job.bindings[final_join] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> {
        // in[0]=customer totals, in[1]=store averages, in[2]=customers.
        DITTO_ASSIGN_OR_RETURN(
            Table known, exec::hash_join(in.at(0), "order_id", in.at(2), "id",
                                         JoinKind::kLeftSemi));
        DITTO_ASSIGN_OR_RETURN(
            Table with_avg,
            exec::hash_join(known, "warehouse_id", in.at(1), "warehouse_id"));
        DITTO_ASSIGN_OR_RETURN(
            Table above,
            exec::filter_cols(with_avg,
                              {exec::pred_cols("total", CmpOp::kGt, "avg_total", kQ1AvgFactor)}));
        return summarize_orders(above, "total");
      },
      "", {}};
  annotate_engine_volumes(job);
  return job;
}

EngineAnswer q1_engine_reference(const EngineJob& job, const EngineQuerySpec&) {
  EngineAnswer answer;
  const Table& returns = *job.sources.at("store_returns");
  const Table& dates = *job.sources.at("date_dim");
  const Table& customers = *job.sources.at("customer");

  auto allowed =
      exec::filter_cols(dates, {exec::pred_int("attr", CmpOp::kEq, kDimAttrAllowed)});
  if (!allowed.ok()) return answer;
  auto dated =
      exec::hash_join(returns, "date_id", *allowed, "id", JoinKind::kLeftSemi);
  if (!dated.ok()) return answer;
  auto totals = exec::group_by(*dated, "order_id",
                               {{AggKind::kSum, "price", "total"},
                                {AggKind::kFirstInt, "warehouse_id", "warehouse_id"}});
  if (!totals.ok()) return answer;
  auto avgs =
      exec::group_by(*totals, "warehouse_id", {{AggKind::kAvg, "total", "avg_total"}});
  if (!avgs.ok()) return answer;
  auto known = exec::hash_join(*totals, "order_id", customers, "id", JoinKind::kLeftSemi);
  if (!known.ok()) return answer;
  auto with_avg = exec::hash_join(*known, "warehouse_id", *avgs, "warehouse_id");
  if (!with_avg.ok()) return answer;
  auto above = exec::filter_cols(
      *with_avg, {exec::pred_cols("total", CmpOp::kGt, "avg_total", kQ1AvgFactor)});
  if (!above.ok()) return answer;
  answer.rows = static_cast<std::int64_t>(above->num_rows());
  for (double v : above->column_by_name("total").double_span()) answer.value += v;
  return answer;
}

// ---------------------------------------------------------------------------
// Q16 / Q94 (shared shape; the dimension filter differs)
// ---------------------------------------------------------------------------

namespace {

EngineJob build_q16_shaped(const EngineQuerySpec& spec, const char* name,
                           const std::string& dim_join_column, std::size_t dim_rows,
                           std::uint64_t dim_seed) {
  EngineJob job;
  auto sales = std::make_shared<const Table>(exec::gen_fact_table(fact_spec_from(spec)));
  auto returns = std::make_shared<const Table>(
      exec::gen_returns_table(*sales, kReturnFraction, spec.seed + 1));
  auto dim = std::make_shared<const Table>(exec::gen_dim_table(dim_rows, 3, dim_seed));
  job.sources = {{"sales", sales}, {"returns", returns}, {"dim", dim}};

  JobDag dag(name);
  const StageId scan_sales = dag.add_stage("scan_sales");
  const StageId scan_dims = dag.add_stage("scan_dims");
  const StageId filter_join = dag.add_stage("filter_join");
  const StageId scan_sales2 = dag.add_stage("scan_sales2");
  const StageId exists_join = dag.add_stage("exists_join");
  const StageId scan_returns = dag.add_stage("scan_returns");
  const StageId anti_join = dag.add_stage("anti_join");
  const StageId agg_distinct = dag.add_stage("agg_distinct");
  (void)dag.add_edge(scan_sales, filter_join, ExchangeKind::kShuffle);
  (void)dag.add_edge(scan_dims, filter_join, ExchangeKind::kAllGather);
  (void)dag.add_edge(filter_join, exists_join, ExchangeKind::kShuffle);
  (void)dag.add_edge(scan_sales2, exists_join, ExchangeKind::kShuffle);
  (void)dag.add_edge(exists_join, anti_join, ExchangeKind::kShuffle);
  (void)dag.add_edge(scan_returns, anti_join, ExchangeKind::kShuffle);
  (void)dag.add_edge(anti_join, agg_distinct, ExchangeKind::kGather);
  job.dag = std::move(dag);
  job.sink = agg_distinct;

  job.bindings[scan_sales] =
      scan_binding(sales, {exec::pred_double("price", CmpOp::kGt, kPriceThreshold)},
                   {"order_id", "warehouse_id", "date_id", "site_id", "price"}, "order_id");
  job.bindings[scan_dims] =
      scan_binding(dim, {exec::pred_int("attr", CmpOp::kEq, kDimAttrAllowed)}, {"id"}, "");

  job.bindings[filter_join] = StageBinding{
      [dim_join_column](int, int, const std::vector<Table>& in) -> Result<Table> {
        return exec::hash_join(in.at(0), dim_join_column, in.at(1), "id",
                               JoinKind::kLeftSemi);
      },
      "order_id",
      {}};

  job.bindings[scan_sales2] =
      scan_binding(sales, {}, {"order_id", "warehouse_id"}, "order_id");

  job.bindings[exists_join] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> {
        // EXISTS a second sale of the same order from another warehouse.
        DITTO_ASSIGN_OR_RETURN(Table multi, multi_warehouse(in.at(1)));
        return exec::hash_join(in.at(0), "order_id", multi, "order_id",
                               JoinKind::kLeftSemi);
      },
      "order_id",
      {}};

  job.bindings[scan_returns] = scan_binding(returns, {}, {"order_id"}, "order_id");

  job.bindings[anti_join] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> {
        return exec::hash_join(in.at(0), "order_id", in.at(1), "order_id",
                               JoinKind::kLeftAnti);
      },
      "order_id",
      {}};

  job.bindings[agg_distinct] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> {
        // Distinct orders and their revenue. Rows of one order never
        // split across tasks (everything upstream is order-keyed).
        DITTO_ASSIGN_OR_RETURN(
            Table per_order,
            exec::group_by(in.at(0), "order_id", {{AggKind::kSum, "price", "revenue"}}));
        return summarize_orders(per_order, "revenue");
      },
      "", {}};
  annotate_engine_volumes(job);
  return job;
}

EngineAnswer q16_shaped_reference(const EngineJob& job, const std::string& dim_join_column) {
  EngineAnswer answer;
  const Table& sales = *job.sources.at("sales");
  const Table& returns = *job.sources.at("returns");
  const Table& dim = *job.sources.at("dim");

  auto filtered =
      exec::filter_cols(sales, {exec::pred_double("price", CmpOp::kGt, kPriceThreshold)});
  if (!filtered.ok()) return answer;
  auto allowed =
      exec::filter_cols(dim, {exec::pred_int("attr", CmpOp::kEq, kDimAttrAllowed)});
  if (!allowed.ok()) return answer;
  auto dimmed =
      exec::hash_join(*filtered, dim_join_column, *allowed, "id", JoinKind::kLeftSemi);
  if (!dimmed.ok()) return answer;
  auto multi = multi_warehouse(sales);
  if (!multi.ok()) return answer;
  auto exists =
      exec::hash_join(*dimmed, "order_id", *multi, "order_id", JoinKind::kLeftSemi);
  if (!exists.ok()) return answer;
  auto no_return =
      exec::hash_join(*exists, "order_id", returns, "order_id", JoinKind::kLeftAnti);
  if (!no_return.ok()) return answer;
  auto per_order =
      exec::group_by(*no_return, "order_id", {{AggKind::kSum, "price", "revenue"}});
  if (!per_order.ok()) return answer;
  answer.rows = static_cast<std::int64_t>(per_order->num_rows());
  for (double v : per_order->column_by_name("revenue").double_span()) answer.value += v;
  return answer;
}

}  // namespace

EngineJob build_q16_engine_job(const EngineQuerySpec& spec) {
  return build_q16_shaped(spec, "Q16-engine", "site_id",
                          static_cast<std::size_t>(kNumSites), spec.seed + 4);
}

EngineJob build_q94_engine_job(const EngineQuerySpec& spec) {
  return build_q16_shaped(spec, "Q94-engine", "date_id",
                          static_cast<std::size_t>(kNumDates), spec.seed + 5);
}

EngineAnswer q16_engine_reference(const EngineJob& job, const EngineQuerySpec&) {
  return q16_shaped_reference(job, "site_id");
}

EngineAnswer q94_engine_reference(const EngineJob& job, const EngineQuerySpec&) {
  return q16_shaped_reference(job, "date_id");
}

// ---------------------------------------------------------------------------
// Q95
// ---------------------------------------------------------------------------

namespace {

/// Q95's groupby, shared with the reference: per order, the warehouse
/// range, a representative date/site and the revenue; orders touching
/// >= 2 warehouses survive.
Result<Table> q95_multi_warehouse_orders(const Table& filtered_sales) {
  DITTO_ASSIGN_OR_RETURN(
      Table grouped,
      exec::group_by(filtered_sales, "order_id",
                     {{AggKind::kMin, "warehouse_id", "wh_min"},
                      {AggKind::kMax, "warehouse_id", "wh_max"},
                      {AggKind::kFirstInt, "date_id", "date_id"},
                      {AggKind::kFirstInt, "site_id", "site_id"},
                      {AggKind::kSum, "price", "revenue"}}));
  DITTO_ASSIGN_OR_RETURN(
      Table multi, exec::filter_cols(grouped, {exec::pred_cols("wh_min", CmpOp::kLt, "wh_max")}));
  return exec::project(multi, {"order_id", "date_id", "site_id", "revenue"});
}

/// A join stage of input 0 (the probe side) against input 1 (the build
/// side). When its edges stream, the build side gathers whole (hash
/// builds are blocking) and each arriving probe chunk probes it.
StageBinding streaming_join(std::string left_col, std::string right_col, JoinKind kind) {
  StageBinding b;
  b.fn = [left_col, right_col, kind](int, int, const std::vector<Table>& in) -> Result<Table> {
    return exec::hash_join(in.at(0), left_col, in.at(1), right_col, kind);
  };
  b.stream_fn = [left_col, right_col, kind](
                    int, int, std::vector<exec::TableChunkFn>& in) -> Result<Table> {
    DITTO_ASSIGN_OR_RETURN(Table build, exec::gather_chunks(in.at(1)));
    return exec::hash_join_stream(in.at(0), left_col, build, right_col, kind, nullptr);
  };
  b.output_key = "order_id";
  return b;
}

}  // namespace

EngineJob build_q95_engine_job(const EngineQuerySpec& spec) {
  EngineJob job;
  auto sales = std::make_shared<const Table>(exec::gen_fact_table(fact_spec_from(spec)));
  auto returns = std::make_shared<const Table>(
      exec::gen_returns_table(*sales, kReturnFraction, spec.seed + 1));
  auto dates = std::make_shared<const Table>(
      exec::gen_dim_table(static_cast<std::size_t>(kNumDates), 3, spec.seed + 2));
  auto sites = std::make_shared<const Table>(
      exec::gen_dim_table(static_cast<std::size_t>(kNumSites), 4, spec.seed + 3));
  job.sources = {{"web_sales", sales},
                 {"web_returns", returns},
                 {"date_dim", dates},
                 {"web_site", sites}};

  // Fig. 13 shape, same stage order as workload::build_query_dag.
  JobDag dag("q95-engine");
  const StageId map1 = dag.add_stage("map1");
  const StageId groupby = dag.add_stage("groupby");
  const StageId map2 = dag.add_stage("map2");
  const StageId reduce1 = dag.add_stage("reduce1");
  const StageId map3 = dag.add_stage("map3");
  const StageId join1 = dag.add_stage("join1");
  const StageId map4 = dag.add_stage("map4");
  const StageId join2 = dag.add_stage("join2");
  const StageId reduce2 = dag.add_stage("reduce2");
  (void)dag.add_edge(map1, groupby, ExchangeKind::kShuffle);
  (void)dag.add_edge(groupby, reduce1, ExchangeKind::kShuffle);
  (void)dag.add_edge(map2, reduce1, ExchangeKind::kShuffle);
  (void)dag.add_edge(reduce1, join1, ExchangeKind::kShuffle);
  (void)dag.add_edge(map3, join1, ExchangeKind::kAllGather);
  (void)dag.add_edge(join1, join2, ExchangeKind::kShuffle);
  (void)dag.add_edge(map4, join2, ExchangeKind::kAllGather);
  (void)dag.add_edge(join2, reduce2, ExchangeKind::kGather);
  // Hand-set volumes: the real source sizes and coarse selectivities
  // downstream; edges carry the producer's output.
  const auto set_stage = [&dag](StageId s, Bytes in, Bytes out) {
    dag.stage(s).set_input_bytes(in);
    dag.stage(s).set_output_bytes(out);
  };
  const Bytes sales_bytes = sales->byte_size();
  set_stage(map1, sales_bytes, sales_bytes * 6 / 10);
  set_stage(groupby, 0, sales_bytes / 6);
  set_stage(map2, returns->byte_size(), returns->byte_size() / 2);
  set_stage(reduce1, 0, sales_bytes / 12);
  set_stage(map3, dates->byte_size(), dates->byte_size() / 3);
  set_stage(join1, 0, sales_bytes / 20);
  set_stage(map4, sites->byte_size(), sites->byte_size() / 4);
  set_stage(join2, 0, sales_bytes / 30);
  set_stage(reduce2, 0, 64);
  for (const Edge& e : dag.edges()) {
    dag.edge_between(e.src, e.dst).bytes = dag.stage(e.src).output_bytes();
  }
  job.dag = std::move(dag);
  job.sink = reduce2;

  job.bindings[map1] =
      scan_binding(sales, {exec::pred_double("price", CmpOp::kGt, kPriceThreshold)},
                   {"order_id", "warehouse_id", "date_id", "site_id", "price"}, "order_id");
  job.bindings[groupby] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> {
        return q95_multi_warehouse_orders(in.at(0));
      },
      "order_id"};
  job.bindings[map2] = scan_binding(returns, {}, {"order_id"}, "order_id");
  // Orders with a return.
  job.bindings[reduce1] = streaming_join("order_id", "order_id", JoinKind::kLeftSemi);
  job.bindings[map3] =
      scan_binding(dates, {exec::pred_int("attr", CmpOp::kEq, kDimAttrAllowed)}, {"id"}, "");
  // Keep orders whose representative date is allowed.
  job.bindings[join1] = streaming_join("date_id", "id", JoinKind::kLeftSemi);
  job.bindings[map4] =
      scan_binding(sites, {exec::pred_int("attr", CmpOp::kEq, kSiteAttrExcluded)}, {"id"}, "");
  // Drop orders sold through excluded sites.
  job.bindings[join2] = streaming_join("site_id", "id", JoinKind::kLeftAnti);
  job.bindings[reduce2] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> {
        return summarize_orders(in.at(0), "revenue");
      },
      ""};
  return job;
}

EngineAnswer q95_engine_reference(const EngineJob& job, const EngineQuerySpec&) {
  EngineAnswer answer;
  auto filtered =
      exec::filter_cols(*job.sources.at("web_sales"),
                        {exec::pred_double("price", CmpOp::kGt, kPriceThreshold)});
  if (!filtered.ok()) return answer;
  auto orders = q95_multi_warehouse_orders(*filtered);
  if (!orders.ok()) return answer;
  auto returned = exec::hash_join(*orders, "order_id", *job.sources.at("web_returns"),
                                  "order_id", JoinKind::kLeftSemi);
  if (!returned.ok()) return answer;
  auto good_dates = exec::filter_cols(*job.sources.at("date_dim"),
                                      {exec::pred_int("attr", CmpOp::kEq, kDimAttrAllowed)});
  if (!good_dates.ok()) return answer;
  auto dated = exec::hash_join(*returned, "date_id", *good_dates, "id", JoinKind::kLeftSemi);
  if (!dated.ok()) return answer;
  auto bad_sites = exec::filter_cols(*job.sources.at("web_site"),
                                     {exec::pred_int("attr", CmpOp::kEq, kSiteAttrExcluded)});
  if (!bad_sites.ok()) return answer;
  auto final_orders =
      exec::hash_join(*dated, "site_id", *bad_sites, "id", JoinKind::kLeftAnti);
  if (!final_orders.ok()) return answer;
  answer.rows = static_cast<std::int64_t>(final_orders->num_rows());
  for (double v : final_orders->column_by_name("revenue").double_span()) answer.value += v;
  return answer;
}

Result<EngineAnswer> engine_answer_from_sink(const exec::Table& sink_output) {
  const int ri = sink_output.column_index("rows");
  const int vi = sink_output.column_index("value");
  if (ri < 0 || vi < 0) return Status::invalid_argument("unexpected sink schema");
  EngineAnswer answer;
  for (std::int64_t n : sink_output.column(ri).int_span()) answer.rows += n;
  for (double v : sink_output.column(vi).double_span()) answer.value += v;
  return answer;
}


const std::vector<EngineQuery>& engine_queries() {
  static const std::vector<EngineQuery> catalogue = {
      {"q1", &build_q1_engine_job, &q1_engine_reference},
      {"q16", &build_q16_engine_job, &q16_engine_reference},
      {"q94", &build_q94_engine_job, &q94_engine_reference},
      {"q95", &build_q95_engine_job, &q95_engine_reference},
  };
  return catalogue;
}

Result<EngineQuery> find_engine_query(std::string_view name) {
  std::string names;
  for (const EngineQuery& q : engine_queries()) {
    if (name == q.name) return q;
    names += (names.empty() ? "" : "|") + std::string(q.name);
  }
  return Status::invalid_argument("unknown engine query '" + std::string(name) + "' (want " +
                                  names + ")");
}

}  // namespace ditto::workload
