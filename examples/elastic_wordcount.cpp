// Engine-level example: a REAL distributed aggregation on real data.
//
// Where the other examples use the discrete-event simulator, this one
// runs the MiniEngine: scan tasks slice a generated fact table, a
// shuffle repartitions rows by key, and aggregate tasks group-by — as
// actual work on per-server thread pools, with every intermediate
// table moving through the exchange fabric. Running the same job with
// co-located vs spread placement shows the zero-copy effect directly:
// identical results, different data-plane traffic.
#include <cstdio>
#include <memory>

#include "exec/datagen.h"
#include "exec/engine.h"
#include "exec/operators.h"
#include "storage/sim_store.h"

using namespace ditto;
using namespace ditto::exec;

namespace {

cluster::PlacementPlan make_plan(std::vector<int> dop,
                                 std::vector<std::vector<ServerId>> servers,
                                 std::vector<std::pair<StageId, StageId>> zc) {
  cluster::PlacementPlan plan;
  plan.dop = std::move(dop);
  plan.task_server = std::move(servers);
  plan.zero_copy_edges = std::move(zc);
  return plan;
}

}  // namespace

int main() {
  // Data: ~200k rows of synthetic sales with Zipf-skewed keys.
  const auto fact = std::make_shared<const Table>(
      gen_fact_table({.rows = 200000, .num_warehouses = 32, .key_zipf_skew = 0.8, .seed = 1}));
  std::printf("fact table: %zu rows, %s\n", fact->num_rows(),
              bytes_to_string(fact->byte_size()).c_str());

  // DAG: scan -> shuffle -> aggregate.
  JobDag dag("wordcount");
  const StageId scan = dag.add_stage("scan");
  const StageId agg = dag.add_stage("agg");
  if (!dag.add_edge(scan, agg, ExchangeKind::kShuffle).is_ok()) return 1;

  std::map<StageId, StageBinding> bindings;
  bindings[scan] = StageBinding{
      [fact](int task, int dop, const std::vector<Table>&) -> Result<Table> {
        return range_slice(fact, task, dop);
      },
      "warehouse_id"};
  bindings[agg] = StageBinding{
      [](int, int, const std::vector<Table>& inputs) -> Result<Table> {
        return group_by(inputs.at(0), "warehouse_id",
                        {{AggKind::kSum, "price", "revenue"}, {AggKind::kCount, "", "sales"}});
      },
      ""};

  struct Config {
    const char* name;
    cluster::PlacementPlan plan;
  };
  // A co-located plan (one server, zero-copy) vs a spread plan
  // (producers and consumers on different servers, serialized).
  std::vector<Config> configs;
  configs.push_back({"co-located (zero-copy)",
                     make_plan({4, 4}, {{0, 0, 0, 0}, {0, 0, 0, 0}}, {{scan, agg}})});
  configs.push_back(
      {"spread (serialized)", make_plan({4, 4}, {{0, 1, 2, 3}, {4, 5, 6, 7}}, {})});

  for (auto& config : configs) {
    // Redis-modelled store with a small REAL delay per transfer, so the
    // wall-clock difference is observable, not just counted.
    auto store = storage::make_redis_sim();
    store->set_real_delay_scale(0.05);
    MiniEngine engine(dag, config.plan, *store);
    const auto result = engine.run(bindings);
    if (!result.ok()) {
      std::fprintf(stderr, "engine failed: %s\n", result.status().to_string().c_str());
      return 1;
    }
    double revenue = 0.0;
    for (const auto& [sid, table] : result->sink_outputs) {
      for (double v : table.column_by_name("revenue").double_span()) revenue += v;
    }
    std::printf(
        "\n%-24s wall %6.1f ms | zero-copy msgs %3zu, remote msgs %3zu (%s via store)\n",
        config.name, result->stats.wall_seconds * 1e3,
        result->stats.exchange.zero_copy_messages, result->stats.exchange.remote_messages,
        bytes_to_string(result->stats.exchange.remote_bytes).c_str());
    std::printf("%-24s total revenue %.2f (identical across placements)\n", "", revenue);
  }
  return 0;
}
