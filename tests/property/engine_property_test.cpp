// Property tests over the MiniEngine: for random placements and DoPs
// of a scan -> shuffle -> aggregate job on random data, the engine
// must conserve the aggregate exactly (sums independent of execution
// layout), and zero-copy traffic must appear iff placements overlap.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/datagen.h"
#include "exec/engine.h"
#include "exec/operators.h"
#include "storage/sim_store.h"

namespace ditto::exec {
namespace {

struct JobSetup {
  JobDag dag{"prop"};
  std::shared_ptr<const Table> fact;
  std::map<StageId, StageBinding> bindings;
};

JobSetup make_setup(Rng& rng) {
  JobSetup s;
  FactTableSpec spec;
  spec.rows = 1000 + static_cast<std::size_t>(rng.uniform_int(0, 4000));
  spec.num_warehouses = 4 + rng.uniform_int(0, 20);
  spec.key_zipf_skew = rng.coin(0.5) ? 0.9 : 0.0;
  spec.seed = rng.engine()();
  s.fact = std::make_shared<const Table>(gen_fact_table(spec));

  const StageId scan = s.dag.add_stage("scan");
  const StageId agg = s.dag.add_stage("agg");
  EXPECT_TRUE(s.dag.add_edge(scan, agg, ExchangeKind::kShuffle).is_ok());

  auto fact = s.fact;
  s.bindings[scan] = StageBinding{
      [fact](int task, int dop, const std::vector<Table>&) -> Result<Table> {
        return range_slice(fact, task, dop);
      },
      "warehouse_id"};
  s.bindings[agg] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> {
        return group_by(in.at(0), "warehouse_id", {{AggKind::kSum, "price", "revenue"}});
      },
      ""};
  return s;
}

double total_revenue(const Table& t) {
  double out = 0.0;
  for (double v : t.column_by_name("revenue").doubles()) out += v;
  return out;
}

double reference_revenue(const Table& fact) {
  double out = 0.0;
  for (double v : fact.column_by_name("price").doubles()) out += v;
  return out;
}

class EngineProperty : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty, ::testing::Range(0, 12));

TEST_P(EngineProperty, AggregateInvariantUnderRandomLayout) {
  Rng rng(GetParam() * 73 + 41);
  JobSetup s = make_setup(rng);
  const double expected = reference_revenue(*s.fact);

  for (int trial = 0; trial < 4; ++trial) {
    cluster::PlacementPlan plan;
    const int dop_scan = 1 + static_cast<int>(rng.uniform_int(0, 5));
    const int dop_agg = 1 + static_cast<int>(rng.uniform_int(0, 5));
    const int servers = 1 + static_cast<int>(rng.uniform_int(0, 4));
    plan.dop = {dop_scan, dop_agg};
    plan.task_server.resize(2);
    for (int t = 0; t < dop_scan; ++t) {
      plan.task_server[0].push_back(static_cast<ServerId>(rng.uniform_int(0, servers - 1)));
    }
    for (int t = 0; t < dop_agg; ++t) {
      plan.task_server[1].push_back(static_cast<ServerId>(rng.uniform_int(0, servers - 1)));
    }
    auto store = storage::make_instant_store();
    MiniEngine engine(s.dag, plan, *store);
    const auto result = engine.run(s.bindings);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_NEAR(total_revenue(result->sink_outputs.at(1)), expected, 1e-6)
        << "dop " << dop_scan << "/" << dop_agg << " servers " << servers;
  }
}

}  // namespace
}  // namespace ditto::exec
