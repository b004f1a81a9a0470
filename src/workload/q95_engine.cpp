#include "workload/q95_engine.h"

#include "exec/datagen.h"
#include "exec/operators.h"
#include "workload/engine_queries.h"

namespace ditto::workload {

using exec::AggKind;
using exec::CmpOp;
using exec::JoinKind;
using exec::StageBinding;
using exec::Table;

namespace {

/// Groupby logic shared with the reference implementation.
Result<Table> multi_warehouse_orders(const Table& filtered_sales) {
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

Result<Table> summarize(const Table& orders) {
  double revenue = 0.0;
  for (double v : orders.column_by_name("revenue").double_span()) revenue += v;
  return Table::make(
      {{"orders", exec::DataType::kInt64}, {"revenue", exec::DataType::kDouble}},
      {exec::Column(std::vector<std::int64_t>{static_cast<std::int64_t>(orders.num_rows())}),
       exec::Column(std::vector<double>{revenue})});
}

}  // namespace

Q95EngineJob build_q95_engine_job(const Q95EngineSpec& spec) {
  Q95EngineJob job;

  // Data.
  exec::FactTableSpec fact_spec;
  fact_spec.rows = spec.sales_rows;
  fact_spec.num_orders = spec.num_orders;
  fact_spec.num_warehouses = spec.num_warehouses;
  fact_spec.num_dates = spec.num_dates;
  fact_spec.num_sites = spec.num_sites;
  fact_spec.seed = spec.seed;
  auto sales = std::make_shared<const Table>(exec::gen_fact_table(fact_spec));
  job.web_sales = sales;
  auto returns = std::make_shared<const Table>(
      exec::gen_returns_table(*sales, spec.return_fraction, spec.seed + 1));
  job.web_returns = returns;
  auto dates = std::make_shared<const Table>(
      exec::gen_dim_table(static_cast<std::size_t>(spec.num_dates), 3, spec.seed + 2));
  job.date_dim = dates;
  auto sites = std::make_shared<const Table>(
      exec::gen_dim_table(static_cast<std::size_t>(spec.num_sites), 4, spec.seed + 3));
  job.web_site = sites;

  // DAG (Fig. 13 shape, same stage order as workload::build_query_dag).
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
  job.dag = std::move(dag);

  // Bindings.
  const double threshold = spec.price_threshold;
  const std::int64_t date_ok = spec.date_attr_allowed;
  const std::int64_t site_bad = spec.site_attr_excluded;

  job.bindings[map1] =
      scan_binding(sales, {exec::pred_double("price", CmpOp::kGt, threshold)},
                   {"order_id", "warehouse_id", "date_id", "site_id", "price"}, "order_id");

  job.bindings[groupby] = StageBinding{
      [](int, int, const std::vector<Table>& inputs) -> Result<Table> {
        return multi_warehouse_orders(inputs.at(0));
      },
      "order_id"};

  job.bindings[map2] = scan_binding(returns, {}, {"order_id"}, "order_id");

  job.bindings[reduce1] = StageBinding{
      [](int, int, const std::vector<Table>& inputs) -> Result<Table> {
        // Orders with a return: semi join against the returns slice.
        return exec::hash_join(inputs.at(0), "order_id", inputs.at(1), "order_id",
                               JoinKind::kLeftSemi);
      },
      "order_id"};
  // Streaming variant: the returns build side gathers fully (hash
  // builds are blocking), then each arriving orders chunk probes it.
  job.bindings[reduce1].stream_fn =
      [](int, int, std::vector<exec::TableChunkFn>& inputs) -> Result<Table> {
    DITTO_ASSIGN_OR_RETURN(Table rets, exec::gather_chunks(inputs.at(1)));
    return exec::hash_join_stream(inputs.at(0), "order_id", rets, "order_id",
                                  JoinKind::kLeftSemi, nullptr);
  };

  job.bindings[map3] =
      scan_binding(dates, {exec::pred_int("attr", CmpOp::kEq, date_ok)}, {"id"}, "");

  job.bindings[join1] = StageBinding{
      [](int, int, const std::vector<Table>& inputs) -> Result<Table> {
        // Keep orders whose representative date is in the allowed set.
        return exec::hash_join(inputs.at(0), "date_id", inputs.at(1), "id",
                               JoinKind::kLeftSemi);
      },
      "order_id"};
  job.bindings[join1].stream_fn =
      [](int, int, std::vector<exec::TableChunkFn>& inputs) -> Result<Table> {
    DITTO_ASSIGN_OR_RETURN(Table dates_ok, exec::gather_chunks(inputs.at(1)));
    return exec::hash_join_stream(inputs.at(0), "date_id", dates_ok, "id",
                                  JoinKind::kLeftSemi, nullptr);
  };

  job.bindings[map4] =
      scan_binding(sites, {exec::pred_int("attr", CmpOp::kEq, site_bad)}, {"id"}, "");

  job.bindings[join2] = StageBinding{
      [](int, int, const std::vector<Table>& inputs) -> Result<Table> {
        // Drop orders sold through excluded sites.
        return exec::hash_join(inputs.at(0), "site_id", inputs.at(1), "id",
                               JoinKind::kLeftAnti);
      },
      "order_id"};
  job.bindings[join2].stream_fn =
      [](int, int, std::vector<exec::TableChunkFn>& inputs) -> Result<Table> {
    DITTO_ASSIGN_OR_RETURN(Table sites_bad, exec::gather_chunks(inputs.at(1)));
    return exec::hash_join_stream(inputs.at(0), "site_id", sites_bad, "id",
                                  JoinKind::kLeftAnti, nullptr);
  };

  job.bindings[reduce2] = StageBinding{
      [](int, int, const std::vector<Table>& inputs) -> Result<Table> {
        return summarize(inputs.at(0));
      },
      ""};

  return job;
}

void annotate_q95_volumes(Q95EngineJob& job) {
  JobDag& dag = job.dag;
  const auto set_stage = [&dag](StageId s, Bytes in, Bytes out) {
    dag.stage(s).set_input_bytes(in);
    dag.stage(s).set_output_bytes(out);
  };
  const Bytes sales = job.web_sales->byte_size();
  const Bytes returns = job.web_returns->byte_size();
  const Bytes dates = job.date_dim->byte_size();
  const Bytes sites = job.web_site->byte_size();

  // Coarse selectivities; exact volumes vary with the spec's filters.
  set_stage(0, sales, sales * 6 / 10);            // map1
  set_stage(1, 0, sales / 6);                     // groupby
  set_stage(2, returns, returns / 2);             // map2
  set_stage(3, 0, sales / 12);                    // reduce1
  set_stage(4, dates, dates / 3);                 // map3
  set_stage(5, 0, sales / 20);                    // join1
  set_stage(6, sites, sites / 4);                 // map4
  set_stage(7, 0, sales / 30);                    // join2
  set_stage(8, 0, 64);                            // reduce2
  for (const Edge& e : dag.edges()) {
    dag.edge_between(e.src, e.dst).bytes = dag.stage(e.src).output_bytes();
  }
}

Q95Answer q95_reference(const Q95EngineJob& job, const Q95EngineSpec& spec) {
  Q95Answer answer;
  auto fail = [&answer](const char*) { return answer; };

  auto filtered = exec::filter_cols(
      *job.web_sales, {exec::pred_double("price", CmpOp::kGt, spec.price_threshold)});
  if (!filtered.ok()) return fail("filter");
  auto orders = multi_warehouse_orders(*filtered);
  if (!orders.ok()) return fail("group");
  auto returned = exec::hash_join(*orders, "order_id", *job.web_returns, "order_id",
                                  JoinKind::kLeftSemi);
  if (!returned.ok()) return fail("returns");
  auto good_dates = exec::filter_cols(
      *job.date_dim, {exec::pred_int("attr", CmpOp::kEq, spec.date_attr_allowed)});
  if (!good_dates.ok()) return fail("dates");
  auto dated =
      exec::hash_join(*returned, "date_id", *good_dates, "id", JoinKind::kLeftSemi);
  if (!dated.ok()) return fail("date join");
  auto bad_sites = exec::filter_cols(
      *job.web_site, {exec::pred_int("attr", CmpOp::kEq, spec.site_attr_excluded)});
  if (!bad_sites.ok()) return fail("sites");
  auto final_orders =
      exec::hash_join(*dated, "site_id", *bad_sites, "id", JoinKind::kLeftAnti);
  if (!final_orders.ok()) return fail("site join");

  answer.order_count = static_cast<std::int64_t>(final_orders->num_rows());
  for (double v : final_orders->column_by_name("revenue").double_span()) {
    answer.total_revenue += v;
  }
  return answer;
}

Result<Q95Answer> q95_answer_from_sink(const exec::Table& sink_output) {
  const int oi = sink_output.column_index("orders");
  const int ri = sink_output.column_index("revenue");
  if (oi < 0 || ri < 0) return Status::invalid_argument("unexpected sink schema");
  Q95Answer answer;
  for (std::int64_t n : sink_output.column(oi).int_span()) answer.order_count += n;
  for (double v : sink_output.column(ri).double_span()) answer.total_revenue += v;
  return answer;
}

}  // namespace ditto::workload
