#include "exec/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>

#include "common/thread_pool.h"
#include "exec/datagen.h"
#include "exec/kernels.h"
#include "exec/operators.h"
#include "exec/partition.h"
#include "exec/serde.h"
#include "faults/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/sim_store.h"
#include "support/tables.h"
#include "workload/engine_queries.h"

namespace ditto::exec {
namespace {

/// map(fact) -> shuffle -> groupby(warehouse): real distributed group-by.
JobDag agg_dag() {
  JobDag dag("agg");
  const StageId scan = dag.add_stage("scan");
  const StageId agg = dag.add_stage("agg");
  EXPECT_TRUE(dag.add_edge(scan, agg, ExchangeKind::kShuffle).is_ok());
  return dag;
}

cluster::PlacementPlan plan_for(const JobDag& dag, std::vector<int> dop,
                                std::vector<std::vector<ServerId>> servers,
                                std::vector<std::pair<StageId, StageId>> zc = {}) {
  cluster::PlacementPlan plan;
  plan.dop = std::move(dop);
  plan.task_server = std::move(servers);
  plan.zero_copy_edges = std::move(zc);
  (void)dag;
  return plan;
}

/// Reference single-node result: group the whole fact table at once.
Table reference_agg(const Table& fact) {
  auto r = group_by(fact, "warehouse_id",
                    {{AggKind::kSum, "quantity", "qty"}, {AggKind::kCount, "", "n"}});
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

std::map<StageId, StageBinding> agg_bindings(const Table& fact) {
  std::map<StageId, StageBinding> bindings;
  const auto src = std::make_shared<const Table>(fact);
  bindings[0] = StageBinding{
      [src](int task, int dop, const std::vector<Table>&) -> Result<Table> {
        // Each scan task reads its slice of the "external" table.
        return range_slice(src, task, dop);
      },
      "warehouse_id"};
  bindings[1] = StageBinding{
      [](int, int, const std::vector<Table>& inputs) -> Result<Table> {
        return group_by(inputs.at(0), "warehouse_id",
                        {{AggKind::kSum, "quantity", "qty"}, {AggKind::kCount, "", "n"}});
      },
      ""};
  return bindings;
}

TEST(MiniEngineTest, DistributedGroupByMatchesReference) {
  const Table fact = gen_fact_table({.rows = 5000, .num_warehouses = 8, .seed = 3});
  const JobDag dag = agg_dag();
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, {4, 3}, {{0, 0, 1, 1}, {0, 1, 1}});
  MiniEngine engine(dag, plan, *store);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  // Merge the sink partitions and compare against the single-node run.
  const Table& merged = result->sink_outputs.at(1);
  auto sorted = sort_by_int(merged, "warehouse_id");
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(*sorted, reference_agg(fact));
  EXPECT_EQ(result->stats.tasks_run, 7u);
}

TEST(MiniEngineTest, CoLocationMakesExchangeZeroCopy) {
  const Table fact = gen_fact_table({.rows = 2000, .seed = 5});
  const JobDag dag = agg_dag();
  auto store = storage::make_instant_store();
  // Everything on server 0: all pipes local.
  const auto plan = plan_for(dag, {2, 2}, {{0, 0}, {0, 0}}, {{0, 1}});
  MiniEngine engine(dag, plan, *store);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.exchange.zero_copy_messages, 0u);
  EXPECT_EQ(result->stats.exchange.remote_messages, 0u);
  EXPECT_EQ(store->stats().puts, 0u);
}

TEST(MiniEngineTest, CrossServerExchangeSerializes) {
  const Table fact = gen_fact_table({.rows = 2000, .seed = 5});
  const JobDag dag = agg_dag();
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, {2, 2}, {{0, 0}, {1, 1}});
  MiniEngine engine(dag, plan, *store);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.exchange.zero_copy_messages, 0u);
  EXPECT_GT(result->stats.exchange.remote_messages, 0u);
  EXPECT_GT(store->stats().puts, 0u);
}

TEST(MiniEngineTest, PlacementChangesResultsNotAtAll) {
  // The paper's correctness requirement: placement affects performance,
  // never results. Same DAG, three placements, identical output.
  const Table fact = gen_fact_table({.rows = 3000, .key_zipf_skew = 0.9, .seed = 9});
  const JobDag dag = agg_dag();
  std::vector<Table> outputs;
  for (const auto& servers : std::vector<std::vector<std::vector<ServerId>>>{
           {{0, 0, 0}, {0, 0}},      // all co-located
           {{0, 1, 2}, {3, 4}},      // fully spread
           {{0, 1, 0}, {1, 0}}}) {   // mixed
    auto store = storage::make_instant_store();
    const auto plan = plan_for(dag, {3, 2}, servers);
    MiniEngine engine(dag, plan, *store);
    auto result = engine.run(agg_bindings(fact));
    ASSERT_TRUE(result.ok());
    auto sorted = sort_by_int(result->sink_outputs.at(1), "warehouse_id");
    ASSERT_TRUE(sorted.ok());
    outputs.push_back(std::move(sorted).value());
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
}

TEST(MiniEngineTest, JoinPipelineAcrossThreeStages) {
  // fact -> (shuffle) join <- (broadcast) dim, then gather to a sink.
  const Table fact = gen_fact_table({.rows = 2000, .num_warehouses = 6, .seed = 13});
  const Table dim = gen_dim_table(6, 3, 17);

  JobDag dag("join");
  const StageId scan_f = dag.add_stage("scan_fact");
  const StageId scan_d = dag.add_stage("scan_dim");
  const StageId join = dag.add_stage("join");
  const StageId sink = dag.add_stage("sink");
  ASSERT_TRUE(dag.add_edge(scan_f, join, ExchangeKind::kShuffle).is_ok());
  ASSERT_TRUE(dag.add_edge(scan_d, join, ExchangeKind::kBroadcast).is_ok());
  ASSERT_TRUE(dag.add_edge(join, sink, ExchangeKind::kGather).is_ok());

  std::map<StageId, StageBinding> bindings;
  const auto fact_src = std::make_shared<const Table>(fact);
  bindings[scan_f] = StageBinding{
      [fact_src](int task, int dop, const std::vector<Table>&) -> Result<Table> {
        return range_slice(fact_src, task, dop);
      },
      "warehouse_id"};
  bindings[scan_d] = StageBinding{
      [&dim](int, int, const std::vector<Table>&) -> Result<Table> { return dim; }, ""};
  bindings[join] = StageBinding{
      [](int, int, const std::vector<Table>& inputs) -> Result<Table> {
        return hash_join(inputs.at(0), "warehouse_id", inputs.at(1), "id");
      },
      "warehouse_id"};
  bindings[sink] = StageBinding{
      [](int, int, const std::vector<Table>& inputs) -> Result<Table> {
        return group_by(inputs.at(0), "attr", {{AggKind::kCount, "", "rows"}});
      },
      ""};

  auto store = storage::make_instant_store();
  const auto plan =
      plan_for(dag, {2, 1, 2, 2}, {{0, 1}, {0}, {0, 1}, {0, 1}}, {{join, sink}});
  MiniEngine engine(dag, plan, *store);
  cluster::RuntimeMonitor monitor;
  const auto result = engine.run(bindings, &monitor);
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  // Reference: single-node join + group-by.
  const auto joined = hash_join(fact, "warehouse_id", dim, "id");
  ASSERT_TRUE(joined.ok());
  const auto ref = group_by(*joined, "attr", {{AggKind::kCount, "", "rows"}});
  ASSERT_TRUE(ref.ok());

  auto merged = sort_by_int(result->sink_outputs.at(sink), "attr");
  ASSERT_TRUE(merged.ok());
  // The distributed run partitions counts across sink tasks; re-group.
  const auto regrouped = group_by(*merged, "attr", {{AggKind::kSum, "rows", "rows"}});
  ASSERT_TRUE(regrouped.ok());
  ASSERT_EQ(regrouped->num_rows(), ref->num_rows());
  for (std::size_t r = 0; r < ref->num_rows(); ++r) {
    EXPECT_EQ(regrouped->column_by_name("attr").int_at(r),
              ref->column_by_name("attr").int_at(r));
    EXPECT_DOUBLE_EQ(regrouped->column_by_name("rows").double_at(r),
                     static_cast<double>(ref->column_by_name("rows").int_at(r)));
  }
  // Monitor saw every task.
  EXPECT_EQ(monitor.num_records(), 7u);
}

TEST(MiniEngineTest, PerEdgeKeysRouteIndependently) {
  // One producer feeds two consumers, shuffling by DIFFERENT keys:
  // consumer A partitions by warehouse, consumer B by date. Each
  // consumer must see every row of its keys in exactly one task.
  const Table fact = gen_fact_table({.rows = 3000, .num_warehouses = 5, .num_dates = 7,
                                     .seed = 31});
  JobDag dag("dualkey");
  const StageId src = dag.add_stage("src");
  const StageId by_wh = dag.add_stage("by_wh");
  const StageId by_date = dag.add_stage("by_date");
  ASSERT_TRUE(dag.add_edge(src, by_wh, ExchangeKind::kShuffle).is_ok());
  ASSERT_TRUE(dag.add_edge(src, by_date, ExchangeKind::kShuffle).is_ok());

  std::map<StageId, StageBinding> bindings;
  StageBinding producer;
  const auto fact_src = std::make_shared<const Table>(fact);
  producer.fn = [fact_src](int task, int dop, const std::vector<Table>&) -> Result<Table> {
    return range_slice(fact_src, task, dop);
  };
  producer.output_key = "warehouse_id";
  producer.edge_keys[by_date] = "date_id";
  bindings[src] = std::move(producer);
  const auto grouper = [](const char* key) {
    return [key](int, int, const std::vector<Table>& in) -> Result<Table> {
      return group_by(in.at(0), key, {{AggKind::kCount, "", "n"}});
    };
  };
  bindings[by_wh] = StageBinding{grouper("warehouse_id"), ""};
  bindings[by_date] = StageBinding{grouper("date_id"), ""};

  cluster::PlacementPlan plan;
  plan.dop = {3, 2, 2};
  plan.task_server = {{0, 1, 2}, {0, 1}, {2, 3}};
  auto store = storage::make_instant_store();
  MiniEngine engine(dag, plan, *store);
  const auto result = engine.run(bindings);
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  // Each consumer's merged per-key counts must match the fact table:
  // totals equal, and no key split across tasks (counts are complete).
  const auto check = [&fact](const Table& merged, const char* key) {
    auto ref = group_by(fact, key, {{AggKind::kCount, "", "n"}});
    ASSERT_TRUE(ref.ok());
    auto sorted = sort_by_int(merged, key);
    ASSERT_TRUE(sorted.ok());
    EXPECT_EQ(*sorted, *ref) << key;
  };
  check(result->sink_outputs.at(by_wh), "warehouse_id");
  check(result->sink_outputs.at(by_date), "date_id");
}

TEST(MiniEngineTest, MissingBindingFails) {
  const JobDag dag = agg_dag();
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, {1, 1}, {{0}, {0}});
  MiniEngine engine(dag, plan, *store);
  EXPECT_FALSE(engine.run({}).ok());
}

TEST(MiniEngineTest, TaskErrorPropagates) {
  const JobDag dag = agg_dag();
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, {1, 1}, {{0}, {0}});
  MiniEngine engine(dag, plan, *store);
  std::map<StageId, StageBinding> bindings;
  bindings[0] = StageBinding{
      [](int, int, const std::vector<Table>&) -> Result<Table> {
        return Status::internal("task exploded");
      },
      "k"};
  bindings[1] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> { return in.at(0); }, ""};
  const auto result = engine.run(bindings);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(MiniEngineTest, CaptureStagesReturnsMergedNonSinkOutputs) {
  const Table fact = gen_fact_table({.rows = 3000, .num_warehouses = 8, .seed = 3});
  const JobDag dag = agg_dag();
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, {3, 2}, {{0, 0, 1}, {0, 1}});

  EngineOptions opts;
  opts.capture_stages = {0};
  MiniEngine engine(dag, plan, *store, opts);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  // The captured scan output is the frame of the whole fact table,
  // assembled in task order — exactly what the scan tasks collectively
  // emitted, in the bytes serialize_table gives their concatenation.
  ASSERT_EQ(result->captured_outputs.count(0), 1u);
  const storage::Payload& frame = result->captured_outputs.at(0);
  const auto fact_src = std::make_shared<const Table>(fact);
  const Table parts[] = {range_slice(fact_src, 0, 3), range_slice(fact_src, 1, 3),
                         range_slice(fact_src, 2, 3)};
  const auto expect = concat_tables({&parts[0], &parts[1], &parts[2]});
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(*frame, *serialize_table(*expect));
  const auto captured = deserialize_table(frame);
  ASSERT_TRUE(captured.ok());
  EXPECT_EQ(captured->num_rows(), fact.num_rows());
  EXPECT_EQ(*captured, *expect);
  // Sinks are not duplicated into captured_outputs.
  EXPECT_EQ(result->captured_outputs.count(1), 0u);
  EXPECT_EQ(result->sink_outputs.count(1), 1u);
}

TEST(MiniEngineTest, NoCaptureByDefault) {
  const Table fact = gen_fact_table({.rows = 1000, .seed = 5});
  const JobDag dag = agg_dag();
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, {2, 2}, {{0, 0}, {0, 0}});
  MiniEngine engine(dag, plan, *store);
  const auto result = engine.run(agg_bindings(fact));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->captured_outputs.empty());
}

/// src -> {left, right} over broadcast edges, all on server 0; stage 0
/// is captured. Each consumer passes its input through and reports the
/// address of its first column's values.
struct TwoChildRun {
  const std::int64_t* produced = nullptr;
  std::atomic<const std::int64_t*> left{nullptr};
  std::atomic<const std::int64_t*> right{nullptr};
};

JobDag two_child_dag() {
  JobDag dag("two_child");
  const StageId src = dag.add_stage("src");
  const StageId left = dag.add_stage("left");
  const StageId right = dag.add_stage("right");
  EXPECT_TRUE(dag.add_edge(src, left, ExchangeKind::kBroadcast).is_ok());
  EXPECT_TRUE(dag.add_edge(src, right, ExchangeKind::kBroadcast).is_ok());
  return dag;
}

std::map<StageId, StageBinding> two_child_bindings(const Table& fact, TwoChildRun& run) {
  std::map<StageId, StageBinding> bindings;
  bindings[0] = StageBinding{
      [&fact, &run](int, int, const std::vector<Table>&) -> Result<Table> {
        Table out = fact;
        out.ensure_owned();
        run.produced = out.column(0).int_span().data();
        return out;
      },
      ""};
  const auto consumer = [](std::atomic<const std::int64_t*>& seen) {
    return [&seen](int, int, const std::vector<Table>& in) -> Result<Table> {
      seen.store(in.at(0).column(0).int_span().data());
      return in.at(0);
    };
  };
  bindings[1] = StageBinding{consumer(run.left), ""};
  bindings[2] = StageBinding{consumer(run.right), ""};
  return bindings;
}

TEST(EngineCaptureTest, TwoChildStageConsumersReadOneColumnBuffer) {
  const Table fact = gen_fact_table({.rows = 2000, .seed = 4});
  const JobDag dag = two_child_dag();
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, {1, 1, 1}, {{0}, {0}, {0}});
  for (const bool capture : {false, true}) {
    EngineOptions opts;
    if (capture) opts.capture_stages = {0};
    TwoChildRun run;
    MiniEngine engine(dag, plan, *store, opts);
    const auto result = engine.run(two_child_bindings(fact, run));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    // Both consumers (and the capture) read the producer's own buffer:
    // no child gets a deep copy.
    ASSERT_NE(run.produced, nullptr);
    EXPECT_EQ(run.left.load(), run.produced) << "capture " << capture;
    EXPECT_EQ(run.right.load(), run.produced) << "capture " << capture;
    EXPECT_EQ(result->sink_outputs.at(1), fact);
    EXPECT_EQ(result->sink_outputs.at(2), fact);
    EXPECT_EQ(result->captured_outputs.size(), capture ? 1u : 0u);
    if (capture) {
      EXPECT_EQ(*result->captured_outputs.at(0), *serialize_table(fact));
    }
  }
}

TEST(EngineCaptureTest, FailedRunReturnsWhileFrameWritesAreStillQueued) {
  // scan (captured) -> pass. The first scan task parks one blocker per
  // worker of the shared compute pool, so the scan frame's write queues
  // behind them (the pool is FIFO) and cannot have run when pass's
  // injected crash fails the run. The write owns what it reads:
  // releasing the blockers afterwards lets it finish against a run that
  // is gone, which ASan and TSan check.
  const auto fact = std::make_shared<const Table>(gen_fact_table({.rows = 20000, .seed = 6}));
  JobDag dag("crash");
  const StageId scan = dag.add_stage("scan");
  const StageId pass = dag.add_stage("pass");
  ASSERT_TRUE(dag.add_edge(scan, pass, ExchangeKind::kGather).is_ok());

  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<ThreadPool*> compute{nullptr};
  std::map<StageId, StageBinding> bindings;
  bindings[scan] = StageBinding{
      [&](int task, int dop, const std::vector<Table>&) -> Result<Table> {
        ThreadPool* expected = nullptr;
        ThreadPool* pool = task_compute_pool();
        if (pool != nullptr && compute.compare_exchange_strong(expected, pool)) {
          for (std::size_t i = 0; i < pool->size(); ++i) {
            pool->submit([released] { released.wait(); });
          }
        }
        return range_slice(fact, task, dop);
      },
      ""};
  bindings[pass] = StageBinding{
      [](int, int, const std::vector<Table>& in) -> Result<Table> { return in.at(0); }, ""};

  const auto spec = faults::parse_fault_spec("crash=1:0");
  ASSERT_TRUE(spec.ok());
  faults::FaultInjector injector(*spec);
  EngineOptions opts;
  opts.injector = &injector;
  opts.resilience.max_task_attempts = 1;
  opts.capture_stages = {scan};
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, {2, 2}, {{0, 1}, {0, 1}});
  Result<EngineResult> result = Status::internal("not run");
  {
    MiniEngine engine(dag, plan, *store, opts);
    result = engine.run(bindings);
  }
  release.set_value();
  if (ThreadPool* pool = compute.load(); pool != nullptr) pool->wait_idle();

  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().to_string().find("injected crash"), std::string::npos)
      << result.status().to_string();
}

TEST(EngineCaptureTest, ServerLossRerunAfterFramingLeavesTheFrame) {
  // Scan task 1 lives on server 1 with both consumers, so losing server
  // 1 before the agg wave re-runs it after the scan frame was written.
  const Table fact = gen_fact_table({.rows = 4000, .num_warehouses = 8, .seed = 11});
  const JobDag dag = agg_dag();
  const auto plan = plan_for(dag, {2, 2}, {{0, 1}, {1, 1}});
  const auto run = [&](const char* faults) {
    const auto spec = faults::parse_fault_spec(faults);
    EXPECT_TRUE(spec.ok());
    faults::FaultInjector injector(*spec);
    EngineOptions opts;
    if (spec->any()) opts.injector = &injector;
    opts.capture_stages = {0};
    auto store = storage::make_instant_store();
    MiniEngine engine(dag, plan, *store, opts);
    return engine.run(agg_bindings(fact));
  };
  const auto clean = run("");
  const auto lossy = run("server_loss=1@1");
  ASSERT_TRUE(clean.ok()) << clean.status().to_string();
  ASSERT_TRUE(lossy.ok()) << lossy.status().to_string();
  EXPECT_GE(lossy->stats.resilience.producers_recovered, 1u);
  ASSERT_EQ(lossy->captured_outputs.count(0), 1u);
  EXPECT_EQ(*lossy->captured_outputs.at(0), *clean->captured_outputs.at(0));
  // The re-run's output is not kept again: stage 0 stays a capture.
  EXPECT_EQ(lossy->sink_outputs.count(0), 0u);
  EXPECT_EQ(lossy->sink_outputs.size(), 1u);
}

TEST(EngineCaptureTest, FrameWriteIsTracedAndCounted) {
  const Table fact = gen_fact_table({.rows = 3000, .num_warehouses = 8, .seed = 3});
  const JobDag dag = agg_dag();
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, {3, 2}, {{0, 0, 1}, {0, 1}});
  EngineOptions opts;
  opts.capture_stages = {0};
  obs::TraceCollector& tc = obs::TraceCollector::global();
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  tc.clear();
  mx.reset();
  obs::set_observability_enabled(true);
  MiniEngine engine(dag, plan, *store, opts);
  const auto result = engine.run(agg_bindings(fact));
  obs::set_observability_enabled(false);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const std::size_t bytes = result->captured_outputs.at(0)->size();
  EXPECT_EQ(mx.counter("engine.capture_bytes").value(), bytes);
  std::size_t spans = 0;
  for (const obs::TraceEvent& e : tc.events()) {
    if (e.cat != "engine" || e.name != "capture_frame") continue;
    ++spans;
    const obs::TraceArgs want = {{"stage", "scan"}, {"bytes", std::to_string(bytes)}};
    EXPECT_EQ(e.args, want);
  }
  EXPECT_EQ(spans, 1u);
  tc.clear();
  mx.reset();
}

/// A chain of `n` single-task stages on one server, each passing its
/// input through unchanged: all the driver's time is between tasks.
JobDag chain_dag(int n) {
  JobDag dag("chain");
  for (int i = 0; i < n; ++i) dag.add_stage("s" + std::to_string(i));
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(dag.add_edge(static_cast<StageId>(i), static_cast<StageId>(i + 1),
                             ExchangeKind::kShuffle)
                    .is_ok());
  }
  return dag;
}

/// s0 (3 tasks) -> s1 (2 tasks) -> s2 (3 tasks): server 0 holds 2, 1
/// and 0 of them, server 1 holds 1, 1 and 3.
cluster::PlacementPlan uneven_chain_plan(const JobDag& dag) {
  return plan_for(dag, {3, 2, 3}, {{0, 0, 1}, {0, 1}, {1, 1, 1}});
}

TEST(RunPlanTest, WavesRunEachStageAsItsOwnGroupOnThePerStageMaximumWidth) {
  const JobDag dag = chain_dag(3);
  const auto plan = plan_run(dag, uneven_chain_plan(dag), EngineOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->order, (std::vector<StageId>{0, 1, 2}));
  EXPECT_TRUE(plan->stream_edges.empty());
  EXPECT_EQ(plan->groups, (std::vector<std::vector<StageId>>{{0}, {1}, {2}}));
  EXPECT_EQ(plan->group_of, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(plan->max_server, 1u);
  EXPECT_EQ(plan->pool_widths, (std::vector<std::size_t>{2, 3}));

  // Shared pools size nothing: the service's pools are already built.
  ServerPools pools({1, 1});
  EngineOptions shared;
  shared.pools = &pools;
  const auto on_shared = plan_run(dag, uneven_chain_plan(dag), shared);
  ASSERT_TRUE(on_shared.ok()) << on_shared.status().to_string();
  EXPECT_EQ(on_shared->groups.size(), 3u);
  EXPECT_TRUE(on_shared->pool_widths.empty());
}

TEST(RunPlanTest, StreamChainIsOneGroupSizedByTheSumOverItsStages) {
  const JobDag dag = chain_dag(3);
  EngineOptions opts;
  opts.stream_edges = {{0, 1}, {1, 2}};
  const auto plan = plan_run(dag, uneven_chain_plan(dag), opts);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->stream_edges.size(), 2u);
  EXPECT_EQ(plan->groups, (std::vector<std::vector<StageId>>{{0, 1, 2}}));
  EXPECT_EQ(plan->group_of, (std::vector<std::size_t>{0, 0, 0}));
  // Every task of the group holds a thread: 2 + 1 + 0 and 1 + 1 + 3.
  EXPECT_EQ(plan->pool_widths, (std::vector<std::size_t>{3, 5}));
}

TEST(RunPlanTest, NonStreamingParentInTheGroupStartsANewGroup) {
  // 0 -> {1, 2} -> 3, where only 2 -> 3 does not stream: 3 has two
  // parents in the current group and must wait for both in full.
  JobDag dag("diamond");
  for (int i = 0; i < 4; ++i) dag.add_stage("s" + std::to_string(i));
  for (const auto& [src, dst] : std::vector<std::pair<StageId, StageId>>{
           {0, 1}, {0, 2}, {1, 3}, {2, 3}}) {
    ASSERT_TRUE(dag.add_edge(src, dst, ExchangeKind::kShuffle).is_ok());
  }
  EngineOptions opts;
  opts.stream_edges = {{0, 1}, {0, 2}, {1, 3}};
  const auto plan = plan_run(dag, plan_for(dag, {1, 1, 1, 1}, {{0}, {0}, {0}, {0}}), opts);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_EQ(plan->groups.size(), 2u);
  std::vector<StageId> first = plan->groups[0];
  std::sort(first.begin(), first.end());
  EXPECT_EQ(first, (std::vector<StageId>{0, 1, 2}));
  EXPECT_EQ(plan->groups[1], (std::vector<StageId>{3}));
  EXPECT_EQ(plan->group_of[3], 1u);
  EXPECT_EQ(plan->pool_widths, (std::vector<std::size_t>{3}));
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST(EngineDriverTest, GroupFinishesWhenItsLastTaskExits) {
  constexpr int kStages = 24;
  const Table row = gen_fact_table({.rows = 1, .seed = 4});
  const JobDag dag = chain_dag(kStages);
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, std::vector<int>(kStages, 1),
                             std::vector<std::vector<ServerId>>(kStages, {0}));
  std::map<StageId, StageBinding> bindings;
  bindings[0] = StageBinding{
      [&row](int, int, const std::vector<Table>&) -> Result<Table> { return row; },
      "warehouse_id"};
  for (StageId s = 1; s < kStages; ++s) {
    bindings[s] = StageBinding{
        [](int, int, const std::vector<Table>& in) -> Result<Table> { return in.at(0); },
        "warehouse_id"};
  }
  MiniEngine engine(dag, plan, *store);
  const auto result = engine.run(bindings);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->sink_outputs.at(kStages - 1), row);

  // A polling driver charges every wave at least one full poll period
  // (2 ms); waking on the task's exit leaves a no-op stage at its real
  // cost, tens of microseconds. Sanitizer builds run that no-op many
  // times slower, so there the bound is the poll period itself.
  const double bound = kSanitized ? 2e-3 : 1e-3;
  std::vector<double> secs = result->stats.stage_seconds;
  ASSERT_EQ(secs.size(), static_cast<std::size_t>(kStages));
  std::nth_element(secs.begin(), secs.begin() + kStages / 2, secs.end());
  EXPECT_LT(secs[kStages / 2], bound);
}

TEST(EngineDriverTest, CancelTokenStopsTheRunWhileATaskSleeps) {
  const Table fact = gen_fact_table({.rows = 200, .seed = 6});
  const JobDag dag = agg_dag();
  auto store = storage::make_instant_store();
  const auto plan = plan_for(dag, {1, 1}, {{0}, {0}});

  std::atomic<bool> cancel{false};
  std::promise<void> started;
  std::future<void> started_f = started.get_future();
  std::atomic<int> downstream_runs{0};
  std::map<StageId, StageBinding> bindings;
  bindings[0] = StageBinding{
      [&fact, &started](int, int, const std::vector<Table>&) -> Result<Table> {
        started.set_value();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return fact;
      },
      "warehouse_id"};
  bindings[1] = StageBinding{
      [&downstream_runs](int, int, const std::vector<Table>& in) -> Result<Table> {
        downstream_runs.fetch_add(1);
        return in.at(0);
      },
      ""};

  EngineOptions opts;
  opts.cancel = &cancel;
  MiniEngine engine(dag, plan, *store, opts);
  std::thread canceller([&] {
    started_f.wait();
    cancel.store(true, std::memory_order_release);
  });
  const auto result = engine.run(bindings);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(downstream_runs.load(), 0);
}

TEST(SharedComputePoolTest, OverlappingAndSuccessiveRunsSeeTheSamePool) {
  const Table fact = gen_fact_table({.rows = 500, .seed = 8});
  const JobDag dag = agg_dag();
  const auto plan = plan_for(dag, {2, 1}, {{0, 1}, {0}});

  // Each overlapping run's agg task records its pool, then waits for the
  // other run's to do the same, so both runs are alive at once: two
  // per-run pools could not share an address then.
  std::atomic<int> arrived{0};
  const auto pool_seen_by_a_run = [&](bool overlap) {
    std::atomic<ThreadPool*> seen{nullptr};
    std::map<StageId, StageBinding> bindings = agg_bindings(fact);
    const StageFn agg = bindings[1].fn;
    bindings[1].fn = [&seen, &arrived, agg, overlap](int task, int dop,
                                                     const std::vector<Table>& in) -> Result<Table> {
      seen.store(task_compute_pool());
      if (overlap) {
        arrived.fetch_add(1);
        const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (arrived.load() < 2 && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
      }
      return agg(task, dop, in);
    };
    auto store = storage::make_instant_store();
    MiniEngine engine(dag, plan, *store);
    EXPECT_TRUE(engine.run(bindings).ok());
    return seen.load();
  };
  auto other = std::async(std::launch::async, pool_seen_by_a_run, true);
  ThreadPool* const first = pool_seen_by_a_run(true);
  EXPECT_EQ(other.get(), first);
  EXPECT_EQ(pool_seen_by_a_run(false), first);
  if (std::thread::hardware_concurrency() >= 2) {
    EXPECT_NE(first, nullptr);
  }
  EXPECT_EQ(task_compute_pool(), nullptr);  // only set inside a task
}

TEST(SharedComputePoolTest, RunChunkedOnItsOwnWorkerRunsInline) {
  // One worker: a nested fan-out onto the same pool would wait forever
  // on chunks that only the waiting worker could run.
  auto pool = std::make_unique<ThreadPool>(1);
  std::vector<std::thread::id> ran_on(8);
  std::thread::id outer;
  bool outer_on_worker = false;
  auto done = pool->submit([&] {
    outer = std::this_thread::get_id();
    outer_on_worker = pool->on_worker_thread();
    run_chunked(ran_on.size(), pool.get(),
                [&](std::size_t c) { ran_on[c] = std::this_thread::get_id(); });
  });
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    (void)pool.release();  // deadlocked: joining its worker would hang
    FAIL() << "run_chunked deadlocked on its own pool's worker";
  }
  done.get();
  EXPECT_TRUE(outer_on_worker);
  EXPECT_FALSE(pool->on_worker_thread());
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, outer);
}

cluster::PlacementPlan round_robin_plan(const JobDag& dag, int dop, int servers) {
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

TEST(SharedComputePoolTest, ConcurrentStandaloneRunsMatchReferences) {
  const workload::EngineQuerySpec q95_spec{.fact_rows = 20000, .num_orders = 3000, .seed = 1234};
  const workload::EngineQuerySpec q16_spec{.fact_rows = 20000, .num_orders = 3000};
  const workload::EngineJob jobs[] = {workload::build_q95_engine_job(q95_spec),
                                      workload::build_q16_engine_job(q16_spec)};
  const workload::EngineAnswer refs[] = {workload::q95_engine_reference(jobs[0], q95_spec),
                                         workload::q16_engine_reference(jobs[1], q16_spec)};

  // Four standalone engines at once, each with private server pools,
  // all sharing the one process-wide compute pool.
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 3;
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        auto store = storage::make_instant_store();
        const workload::EngineJob& job = jobs[i % 2];
        const workload::EngineAnswer& ref = refs[i % 2];
        const auto plan = round_robin_plan(job.dag, 3, 2);
        MiniEngine engine(job.dag, plan, *store);
        const auto result = engine.run(job.bindings);
        const auto got = result.ok() ? workload::engine_answer_from_sink(
                                           result->sink_outputs.at(job.sink))
                                     : Result<workload::EngineAnswer>(result.status());
        if (!got.ok() || got->rows != ref.rows || std::abs(got->value - ref.value) > 1e-6) {
          ++wrong[i];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(wrong[i], 0) << "thread " << i;
}

TEST(DatagenTest, FactTableShapeAndDeterminism) {
  const Table a = gen_fact_table({.rows = 100, .seed = 1});
  const Table b = gen_fact_table({.rows = 100, .seed = 1});
  const Table c = gen_fact_table({.rows = 100, .seed = 2});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.num_rows(), 100u);
  EXPECT_GE(a.column_index("order_id"), 0);
  EXPECT_GE(a.column_index("price"), 0);
}

TEST(DatagenTest, ZipfSkewConcentratesOrders) {
  const Table uniform = gen_fact_table({.rows = 5000, .num_orders = 100, .seed = 3});
  const Table skewed =
      gen_fact_table({.rows = 5000, .num_orders = 100, .key_zipf_skew = 1.2, .seed = 3});
  const auto mode_count = [](const Table& t) {
    std::map<std::int64_t, int> counts;
    for (std::int64_t k : t.column_by_name("order_id").ints()) ++counts[k];
    int best = 0;
    for (const auto& [k, c] : counts) best = std::max(best, c);
    return best;
  };
  EXPECT_GT(mode_count(skewed), 2 * mode_count(uniform));
}

TEST(DatagenTest, ReturnsReferenceFactOrders) {
  const Table fact = gen_fact_table({.rows = 1000, .num_orders = 200, .seed = 21});
  const Table returns = gen_returns_table(fact, 0.3, 23);
  EXPECT_GT(returns.num_rows(), 20u);
  EXPECT_LT(returns.num_rows(), 120u);
  // Every returned order exists in the fact table.
  const auto semi = hash_join(returns, "order_id", fact, "order_id", JoinKind::kLeftSemi);
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(semi->num_rows(), returns.num_rows());
}

}  // namespace
}  // namespace ditto::exec
