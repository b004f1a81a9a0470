// Figure 2: the impact of function placement on the best DoP
// configuration — executed for REAL on the MiniEngine.
//
// The paper's scenario: when the cluster cannot host six map functions
// and a reduce function on one server, a HIGH DoP spread across
// servers pays serialized shuffling (Fig. 2a), while a LOW DoP
// co-located on one server shuffles through zero-copy shared memory
// (Fig. 2b) — and can finish sooner despite less parallelism. Here the
// stores apply small real delays so the effect shows up in wall time.
#include <cstdio>
#include <memory>

#include "exec/datagen.h"
#include "exec/engine.h"
#include "exec/operators.h"
#include "storage/sim_store.h"

using namespace ditto;
using namespace ditto::exec;

namespace {

cluster::PlacementPlan plan_of(std::vector<int> dop,
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
  const auto fact = std::make_shared<const Table>(
      gen_fact_table({.rows = 120000, .num_warehouses = 16, .seed = 2}));

  JobDag dag("fig2");
  const StageId map = dag.add_stage("map");
  const StageId reduce = dag.add_stage("reduce");
  if (!dag.add_edge(map, reduce, ExchangeKind::kShuffle).is_ok()) return 1;

  std::map<StageId, StageBinding> bindings;
  bindings[map] = StageBinding{
      [fact](int task, int dop, const std::vector<Table>&) -> Result<Table> {
        return range_slice(fact, task, dop);
      },
      "warehouse_id"};
  bindings[reduce] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> {
        return group_by(in.at(0), "warehouse_id",
                        {{AggKind::kSum, "price", "revenue"}, {AggKind::kCount, "", "n"}});
      },
      ""};

  struct Config {
    const char* label;
    cluster::PlacementPlan plan;
  };
  std::vector<Config> configs;
  // Fig. 2a: six maps spread over two servers, reduce elsewhere —
  // every pipe crosses servers, everything serializes.
  configs.push_back({"Fig.2a  high DoP, spread  (6 maps on srv1+2, reduce on srv0)",
                     plan_of({6, 1}, {{1, 1, 1, 2, 2, 2}, {0}}, {})});
  // Fig. 2b: three maps co-located with the reduce on server 0 —
  // zero-copy shuffling at lower parallelism.
  configs.push_back({"Fig.2b  low DoP, co-located (3 maps + reduce on srv0)",
                     plan_of({3, 1}, {{0, 0, 0}, {0}}, {{map, reduce}})});

  std::printf("%zu-row fact table (%s); shuffle through a Redis-class store with real "
              "delays\n\n",
              fact->num_rows(), bytes_to_string(fact->byte_size()).c_str());
  for (auto& config : configs) {
    auto store = storage::make_redis_sim();
    store->set_real_delay_scale(0.2);  // make transport time observable
    MiniEngine engine(dag, config.plan, *store);
    const auto result = engine.run(bindings);
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n", result.status().to_string().c_str());
      return 1;
    }
    std::printf("%s\n", config.label);
    std::printf("    wall %6.1f ms | %2zu zero-copy msgs, %2zu via store (%s)\n\n",
                result->stats.wall_seconds * 1e3,
                result->stats.exchange.zero_copy_messages,
                result->stats.exchange.remote_messages,
                bytes_to_string(result->stats.exchange.remote_bytes).c_str());
  }
  std::printf("The paper's Figure-2 point: when slots on one server are scarce,\n"
              "trading parallelism for co-location can win — which is exactly the\n"
              "trade Ditto's shrink fallback evaluates (DittoOptions::"
              "shrink_oversized_groups).\n");
  return 0;
}
