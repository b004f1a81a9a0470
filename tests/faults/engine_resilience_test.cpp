// MiniEngine under injected faults: retries, speculation, and
// server-loss recovery must absorb the chaos without changing results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/datagen.h"
#include "exec/engine.h"
#include "exec/operators.h"
#include "faults/fault_injector.h"
#include "faults/flaky_store.h"
#include "storage/sim_store.h"
#include "support/tables.h"

namespace ditto::faults {
namespace {

using exec::AggKind;
using exec::StageBinding;
using exec::Table;
using exec::gen_fact_table;

JobDag agg_dag() {
  JobDag dag("agg");
  const StageId scan = dag.add_stage("scan");
  const StageId agg = dag.add_stage("agg");
  EXPECT_TRUE(dag.add_edge(scan, agg, ExchangeKind::kShuffle).is_ok());
  return dag;
}

cluster::PlacementPlan plan_for(std::vector<int> dop,
                                std::vector<std::vector<ServerId>> servers) {
  cluster::PlacementPlan plan;
  plan.dop = std::move(dop);
  plan.task_server = std::move(servers);
  return plan;
}

std::map<StageId, StageBinding> agg_bindings(const Table& fact) {
  std::map<StageId, StageBinding> bindings;
  const auto src = std::make_shared<const Table>(fact);
  bindings[0] = StageBinding{
      [src](int task, int dop, const std::vector<Table>&) -> Result<Table> {
        return exec::range_slice(src, task, dop);
      },
      "warehouse_id"};
  bindings[1] = StageBinding{
      [](int, int, const std::vector<Table>& inputs) -> Result<Table> {
        return exec::group_by(inputs.at(0), "warehouse_id",
                              {{AggKind::kSum, "quantity", "qty"}, {AggKind::kCount, "", "n"}});
      },
      ""};
  return bindings;
}

/// Fault-free reference sink output for the given placement.
Table reference_sink(const Table& fact, const cluster::PlacementPlan& plan) {
  const JobDag dag = agg_dag();
  auto store = storage::make_instant_store();
  exec::MiniEngine engine(dag, plan, *store);
  auto result = engine.run(agg_bindings(fact));
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  auto sorted = exec::sort_by_int(result->sink_outputs.at(1), "warehouse_id");
  EXPECT_TRUE(sorted.ok());
  return std::move(sorted).value();
}

TEST(EngineResilienceTest, CrashedTaskIsRetriedToTheSameAnswer) {
  const Table fact = gen_fact_table({.rows = 4000, .num_warehouses = 8, .seed = 3});
  const JobDag dag = agg_dag();
  const auto plan = plan_for({4, 3}, {{0, 0, 1, 1}, {0, 1, 1}});
  const Table reference = reference_sink(fact, plan);

  const auto spec = parse_fault_spec("crash=0:1");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  auto store = storage::make_instant_store();
  exec::EngineOptions options;
  options.injector = &injector;
  exec::MiniEngine engine(dag, plan, *store, options);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  auto sorted = exec::sort_by_int(result->sink_outputs.at(1), "warehouse_id");
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(*sorted, reference);
  EXPECT_EQ(injector.counts().task_crashes, 1u);
  EXPECT_GE(result->stats.resilience.task_retries, 1u);
  EXPECT_EQ(result->stats.tasks_run, 7u);  // logical tasks, not attempts
}

TEST(EngineResilienceTest, PersistentFailureExhaustsAttempts) {
  const JobDag dag = agg_dag();
  const auto plan = plan_for({1, 1}, {{0}, {0}});
  auto store = storage::make_instant_store();
  exec::EngineOptions options;
  options.resilience.max_task_attempts = 2;
  exec::MiniEngine engine(dag, plan, *store, options);
  int calls = 0;
  std::map<StageId, StageBinding> bindings;
  bindings[0] = StageBinding{
      [&calls](int, int, const std::vector<Table>&) -> Result<Table> {
        ++calls;
        return Status::internal("task always explodes");
      },
      "k"};
  bindings[1] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> { return in.at(0); }, ""};
  const auto result = engine.run(bindings);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 2);  // original + one retry, then give up
}

TEST(EngineResilienceTest, ThrownExceptionIsRetriedLikeAFailure) {
  const Table fact = gen_fact_table({.rows = 1000, .num_warehouses = 4, .seed = 5});
  const JobDag dag = agg_dag();
  const auto plan = plan_for({2, 2}, {{0, 0}, {0, 0}});
  const Table reference = reference_sink(fact, plan);

  auto store = storage::make_instant_store();
  exec::MiniEngine engine(dag, plan, *store, exec::EngineOptions{});
  int failures_left = 1;
  auto bindings = agg_bindings(fact);
  const StageBinding original = bindings[0];
  bindings[0].fn = [&, original](int task, int dop,
                                 const std::vector<Table>& in) -> Result<Table> {
    if (task == 0 && failures_left-- > 0) throw std::runtime_error("transient bug");
    return original.fn(task, dop, in);
  };
  const auto result = engine.run(bindings);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  auto sorted = exec::sort_by_int(result->sink_outputs.at(1), "warehouse_id");
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(*sorted, reference);
  EXPECT_GE(result->stats.resilience.task_retries, 1u);
}

TEST(EngineResilienceTest, SpeculationDuplicatesTheHungStraggler) {
  const Table fact = gen_fact_table({.rows = 4000, .num_warehouses = 8, .seed = 7});
  const JobDag dag = agg_dag();
  const auto plan = plan_for({4, 2}, {{0, 0, 1, 1}, {0, 1}});
  const Table reference = reference_sink(fact, plan);

  const auto spec = parse_fault_spec("hang=0:1:0.8");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  auto store = storage::make_instant_store();
  exec::EngineOptions options;
  options.injector = &injector;
  options.resilience.speculation_factor = 2.0;
  options.resilience.speculation_min_wait = 0.01;
  exec::MiniEngine engine(dag, plan, *store, options);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  auto sorted = exec::sort_by_int(result->sink_outputs.at(1), "warehouse_id");
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(*sorted, reference);
  EXPECT_EQ(injector.counts().task_hangs, 1u);
  EXPECT_GE(result->stats.resilience.speculative_launched, 1u);
  EXPECT_GE(result->stats.resilience.speculative_wins, 1u);
  // The duplicate's publish was discarded idempotently (or the hung
  // original's was, if it lost the race after waking up).
  EXPECT_EQ(result->stats.tasks_run, 6u);
}

TEST(EngineResilienceTest, ExhaustedAttemptsDoNotMaskLaterFatalError) {
  // The scan's only attempt is slow and fails AFTER its deadline
  // duplicate already won the slot. That exhausted-attempts failure must
  // stay local to the (won) slot: when the agg stage later fails for
  // real, the run must report the agg's error, not the stale scan one.
  const Table fact = gen_fact_table({.rows = 1000, .num_warehouses = 4, .seed = 19});
  const JobDag dag = agg_dag();
  const auto plan = plan_for({1, 1}, {{0}, {0}});

  auto store = storage::make_instant_store();
  exec::EngineOptions options;
  options.resilience.max_task_attempts = 1;
  options.resilience.task_deadline = 0.03;
  exec::MiniEngine engine(dag, plan, *store, options);

  std::atomic<int> scan_calls{0};
  auto bindings = agg_bindings(fact);
  const StageBinding original = bindings[0];
  bindings[0].fn = [&, original](int task, int dop,
                                 const std::vector<Table>& in) -> Result<Table> {
    if (scan_calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      return Status::internal("slow scan attempt failed");
    }
    return original.fn(task, dop, in);
  };
  bindings[1].fn = [](int, int, const std::vector<Table>&) -> Result<Table> {
    return Status::invalid_argument("agg is fatally broken");
  };

  const auto result = engine.run(bindings);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("agg is fatally broken"), std::string::npos)
      << result.status().to_string();
}

TEST(EngineResilienceTest, FailedDuplicateDoesNotFailAWonSlot) {
  // The scan's only attempt is slow but succeeds; its deadline
  // duplicate, on the other server, fails first. The slot is the
  // original's, so the duplicate's failure must stay with it.
  const Table fact = gen_fact_table({.rows = 1000, .num_warehouses = 4, .seed = 29});
  const JobDag dag = agg_dag();
  const auto plan = plan_for({1, 1}, {{0}, {1}});
  const Table reference = reference_sink(fact, plan);

  auto store = storage::make_instant_store();
  exec::EngineOptions options;
  options.resilience.max_task_attempts = 1;
  options.resilience.task_deadline = 0.03;
  exec::MiniEngine engine(dag, plan, *store, options);

  std::atomic<int> scan_calls{0};
  auto bindings = agg_bindings(fact);
  const StageBinding original = bindings[0];
  bindings[0].fn = [&, original](int task, int dop,
                                 const std::vector<Table>& in) -> Result<Table> {
    if (scan_calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      return original.fn(task, dop, in);
    }
    return Status::internal("duplicate scan attempt failed");
  };

  const auto result = engine.run(bindings);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(scan_calls.load(), 2);
  auto sorted = exec::sort_by_int(result->sink_outputs.at(1), "warehouse_id");
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(*sorted, reference);
  EXPECT_GE(result->stats.resilience.speculative_launched, 1u);
  EXPECT_EQ(result->stats.resilience.speculative_wins, 0u);
}

TEST(EngineResilienceTest, WinningDuplicateProfilesItsOwnQueueAndNoRetries) {
  // SpeculationDuplicatesTheHungStraggler's setup with a profile store
  // and a 0.1 s minimum wait: the duplicate of the hung scan task starts
  // at least 0.1 s after the original's launch, but right after its own.
  const Table fact = gen_fact_table({.rows = 4000, .num_warehouses = 8, .seed = 7});
  const JobDag dag = agg_dag();
  const auto plan = plan_for({4, 2}, {{0, 0, 1, 1}, {0, 1}});

  const auto spec = parse_fault_spec("hang=0:1:0.8");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  auto store = storage::make_instant_store();
  obs::StageProfileStore profiles;
  exec::EngineOptions options;
  options.injector = &injector;
  options.resilience.speculation_factor = 2.0;
  options.resilience.speculation_min_wait = 0.1;
  options.profiles = &profiles;
  options.plan_fingerprint = 0x5eed;
  exec::MiniEngine engine(dag, plan, *store, options);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_GE(result->stats.resilience.speculative_wins, 1u);
  EXPECT_EQ(result->stats.resilience.task_retries, 0u);

  const auto scan = profiles.lookup(0x5eed, 0, 4);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->count, 4u);
  EXPECT_EQ(scan->retries, 0u);
  // The duplicate's sample comes last and weighs kEwmaAlpha = 0.2: a
  // wait counted from the original's launch (>= 0.1 s) would lift the
  // mean to at least 0.02 s.
  EXPECT_LT(scan->ewma_queue, 0.01);
}

TEST(EngineResilienceTest, ServerLossRecoversPendingAndPublishedWork) {
  const Table fact = gen_fact_table({.rows = 4000, .num_warehouses = 8, .seed = 11});
  const JobDag dag = agg_dag();
  // Producer task 1 is co-located with both consumers on server 1, so
  // its intermediates travel zero-copy and die with the server.
  const auto plan = plan_for({2, 2}, {{0, 1}, {1, 1}});
  const Table reference = reference_sink(fact, plan);

  const auto spec = parse_fault_spec("server_loss=1@1");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  auto store = storage::make_instant_store();
  exec::EngineOptions options;
  options.injector = &injector;
  exec::MiniEngine engine(dag, plan, *store, options);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  auto sorted = exec::sort_by_int(result->sink_outputs.at(1), "warehouse_id");
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(*sorted, reference);
  EXPECT_EQ(result->stats.resilience.servers_lost, 1u);
  EXPECT_EQ(result->stats.resilience.tasks_rerouted, 2u);   // both agg tasks
  EXPECT_GE(result->stats.resilience.producers_recovered, 1u);
}

TEST(EngineResilienceTest, FaultFreeRunReportsNoResilienceEvents) {
  const Table fact = gen_fact_table({.rows = 2000, .num_warehouses = 4, .seed = 13});
  const JobDag dag = agg_dag();
  const auto plan = plan_for({2, 2}, {{0, 1}, {0, 1}});
  auto store = storage::make_instant_store();
  exec::EngineOptions options;
  options.resilience.speculation_factor = 2.0;  // armed but never needed
  exec::MiniEngine engine(dag, plan, *store, options);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.resilience.task_retries, 0u);
  EXPECT_EQ(result->stats.resilience.servers_lost, 0u);
  EXPECT_EQ(result->stats.resilience.speculative_wins, 0u);
  EXPECT_EQ(result->stats.resilience.storage_retries, 0u);
}

TEST(EngineResilienceTest, StorageErrorsAbsorbedByFabricRetry) {
  const Table fact = gen_fact_table({.rows = 3000, .num_warehouses = 8, .seed = 17});
  const JobDag dag = agg_dag();
  // Cross-server placement forces every exchange through the store.
  const auto plan = plan_for({2, 2}, {{0, 1}, {1, 0}});
  const Table reference = reference_sink(fact, plan);

  const auto spec = parse_fault_spec("storage_error=0.2,seed=23");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  auto store = storage::make_instant_store();
  FlakyStore flaky(*store, injector);
  exec::EngineOptions options;
  options.injector = &injector;
  options.resilience.storage.max_attempts = 8;
  options.resilience.storage.initial_backoff = 1e-4;
  options.resilience.storage.max_backoff = 1e-3;
  exec::MiniEngine engine(dag, plan, flaky, options);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  auto sorted = exec::sort_by_int(result->sink_outputs.at(1), "warehouse_id");
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(*sorted, reference);
  EXPECT_GT(injector.counts().storage_errors, 0u);
  EXPECT_GT(result->stats.resilience.storage_retries, 0u);
}

}  // namespace
}  // namespace ditto::faults
