// Microbenchmarks of the execution substrate (google-benchmark):
// serialization, operators, partitioning, and — most relevant to the
// paper — the latency gap between zero-copy shared-memory exchange and
// store-mediated remote exchange, which is the asymmetry Ditto's
// grouping decision exploits.
//
// Pass --trace-out FILE to enable the observability layer during the
// run and dump the collected events as Chrome trace-event JSON. The
// default (no flag) keeps observability disabled, so the numbers also
// serve as the "tracing off costs nothing" check.
//
// Pass --faults SPEC (grammar in faults/fault_injector.h) to run the
// flaky-exchange benchmark under injected storage faults; without the
// flag it measures the pure decorator + retry-wiring overhead, which
// is the "faults off costs nothing" check.
//
// Pass --quick to skip google-benchmark and instead run the regression
// self-check: the single-pass partitioner, the zero-copy v2
// deserializer and the columnar operator kernels are timed against
// their legacy/reference formulations on the same data, results are
// verified equal, and the process exits non-zero if the speedups fall
// below the floors (1.5x partition, 1.3x serde, 3x serial group-by;
// 8-thread scaling floors adapt to the host's core count). The check
// also gates the pipelined shuffle: chunk-granular push must beat
// materialized waves on a 48 MB cross-server shuffle, stay
// byte-identical under the fault storm, and not widen the Q95
// time-model drift.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"

#include "exec/datagen.h"
#include "exec/engine.h"
#include "exec/exchange.h"
#include "exec/kernels.h"
#include "exec/operators.h"
#include "exec/serde.h"
#include "faults/fault_injector.h"
#include "faults/flaky_store.h"
#include "faults/retry_policy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/sim_store.h"
#include "support/reference.h"
#include "support/serde_v1.h"
#include "timemodel/predictor.h"
#include "workload/engine_queries.h"
#include "workload/physics.h"
#include "workload/pipelining.h"

using namespace ditto;
using namespace ditto::exec;

namespace {

Table fact(std::size_t rows) { return gen_fact_table({.rows = rows, .seed = 42}); }

/// The exchange's form: a fresh exact-size payload the store keeps.
void BM_SerializeTable(benchmark::State& state) {
  const Table t = fact(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto bytes = serialize_table(t);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * t.byte_size()));
}
BENCHMARK(BM_SerializeTable)->Arg(1000)->Arg(10000)->Arg(100000);

/// Zero-copy parse: fixed-width columns borrow from the payload.
void BM_DeserializeTable(benchmark::State& state) {
  const storage::Payload bytes = serialize_table(fact(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto t = deserialize_table(bytes);
    benchmark::DoNotOptimize(t);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes->size()));
}
BENCHMARK(BM_DeserializeTable)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  const Table left = fact(static_cast<std::size_t>(state.range(0)));
  const Table right = gen_dim_table(64, 8, 7);
  for (auto _ : state) {
    auto out = hash_join(left, "warehouse_id", right, "id");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GroupBy(benchmark::State& state) {
  const Table t = fact(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = group_by(t, "warehouse_id",
                        {{AggKind::kSum, "price", "total"}, {AggKind::kCount, "", "n"}});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GroupBy)->Arg(1000)->Arg(10000)->Arg(100000);

/// Same values, every fixed-width column borrowing external storage —
/// the shape tables arrive in after a zero-copy deserialize.
Table borrowed_table(const Table& t) {
  std::vector<Column> cols;
  cols.reserve(t.num_columns());
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    cols.push_back(t.column(c).borrowed_copy());
  }
  return std::move(Table::make(t.schema(), std::move(cols))).value();
}

/// 1M-row fact table with a wide order_id domain (250k dense ids):
/// enough distinct groups and join keys that the per-key structures
/// dominate. Group-by takes the key-range-partitioned dense path; the
/// inner join still hashes.
Table kernel_fact() {
  FactTableSpec fs;
  fs.rows = 1'000'000;
  fs.num_orders = 250'000;
  fs.seed = 42;
  return gen_fact_table(fs);
}

/// The group-by path the kernels pick for `t`'s order_id column.
const char* group_by_path(const Table& t) {
  const auto keys = t.column_by_name("order_id").int_span();
  switch (pick_group_by_strategy(keys.size(), key_range(keys).span)) {
    case GroupByStrategy::kSerialFlat: return "serial hash";
    case GroupByStrategy::kRadixPartitioned: return "radix hash";
    case GroupByStrategy::kDenseSerial: return "dense serial";
    case GroupByStrategy::kDensePartitioned: return "dense key-range";
  }
  return "unknown";
}

/// The build an inner join against `right`'s id column makes.
const char* inner_join_build(const Table& right) {
  const KeyRange range = key_range(right.column_by_name("id").int_span());
  return pick_join_build_strategy(JoinKind::kInner, range.span) == JoinBuildStrategy::kHashTable
             ? "hash table"
             : "membership bits";
}

const std::vector<AggSpec>& kernel_aggs() {
  static const std::vector<AggSpec> aggs{{AggKind::kSum, "price", "total"},
                                         {AggKind::kCount, "", "n"},
                                         {AggKind::kMin, "warehouse_id", "wh_min"}};
  return aggs;
}

/// Columnar group-by kernel at 1 / 4 / 8 compute threads.
void BM_GroupByKernelThreads(benchmark::State& state) {
  const Table t = kernel_fact();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = group_by(t, "order_id", kernel_aggs(), &pool);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * t.byte_size()));
}
BENCHMARK(BM_GroupByKernelThreads)->Arg(1)->Arg(4)->Arg(8);

/// Row-at-a-time reference group-by on the same data (the baseline the
/// quick-check floor is measured against).
void BM_GroupByReference(benchmark::State& state) {
  const Table t = kernel_fact();
  for (auto _ : state) {
    auto out = reference::group_by(t, "order_id", kernel_aggs());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * t.byte_size()));
}
BENCHMARK(BM_GroupByReference);

/// Partitioned hash-join kernel at 1 / 4 / 8 compute threads: 1M-row
/// probe side against a 250k-row build side.
void BM_HashJoinKernelThreads(benchmark::State& state) {
  const Table left = kernel_fact();
  const Table right = gen_dim_table(250'000, 4, 9);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = hash_join(left, "order_id", right, "id", JoinKind::kInner, &pool);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HashJoinKernelThreads)->Arg(1)->Arg(4)->Arg(8);

void BM_HashJoinReference(benchmark::State& state) {
  const Table left = kernel_fact();
  const Table right = gen_dim_table(250'000, 4, 9);
  for (auto _ : state) {
    auto out = reference::hash_join(left, "order_id", right, "id", JoinKind::kInner);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HashJoinReference);

/// Fused two-predicate columnar filter at 1 / 4 / 8 compute threads.
void BM_FilterKernelThreads(benchmark::State& state) {
  const Table t = kernel_fact();
  const std::vector<ColumnPred> preds{pred_double("price", CmpOp::kGt, 50.0),
                                      pred_int("warehouse_id", CmpOp::kLt, 8)};
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = filter_cols(t, preds, &pool);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * t.byte_size()));
}
BENCHMARK(BM_FilterKernelThreads)->Arg(1)->Arg(4)->Arg(8);

void BM_FilterReference(benchmark::State& state) {
  const Table t = kernel_fact();
  const std::vector<ColumnPred> preds{pred_double("price", CmpOp::kGt, 50.0),
                                      pred_int("warehouse_id", CmpOp::kLt, 8)};
  for (auto _ : state) {
    auto out = reference::filter_cols(t, preds);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * t.byte_size()));
}
BENCHMARK(BM_FilterReference);

void BM_HashPartition(benchmark::State& state) {
  const Table t = fact(100000);
  for (auto _ : state) {
    auto parts = hash_partition(t, "order_id", static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(parts);
  }
}
BENCHMARK(BM_HashPartition)->Arg(2)->Arg(8)->Arg(32);

void BM_HashPartitionParallel(benchmark::State& state) {
  const Table t = fact(1'000'000);
  ThreadPool pool(4);
  for (auto _ : state) {
    auto parts = hash_partition(t, "order_id", static_cast<std::size_t>(state.range(0)), &pool);
    benchmark::DoNotOptimize(parts);
  }
}
BENCHMARK(BM_HashPartitionParallel)->Arg(8)->Arg(32);

/// One publish and one read through a fresh 1x1 gather edge whose
/// producer and consumer sit on servers `prod` and `cons`. The sent
/// table borrows `src`'s columns, so handing it over copies nothing;
/// `prefix` keys a remote pipe's chunk in `store`.
void exchange_round_trip(const Table& src, ServerId prod, ServerId cons,
                         storage::ObjectStore& store, std::string prefix,
                         const faults::RetryPolicy* retry = nullptr) {
  Exchange ex(ExchangeKind::kGather, "", {prod}, {cons}, store, std::move(prefix), retry);
  (void)ex.send(0, src);
  ChunkCursor cur = ex.open_cursor(0);
  auto out = cur.next();
  benchmark::DoNotOptimize(out);
}

/// The zero-copy path: producer and consumer share a server, so the
/// consumer reads the producer's table handle.
void BM_ExchangeLocalZeroCopy(benchmark::State& state) {
  const Table table = borrowed_table(fact(static_cast<std::size_t>(state.range(0))));
  auto store = storage::make_instant_store();
  for (auto _ : state) exchange_round_trip(table, 0, 0, *store, "bench");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * table.byte_size()));
}
BENCHMARK(BM_ExchangeLocalZeroCopy)->Arg(1000)->Arg(100000);

/// The remote path: serialize into the store, read back, deserialize.
void BM_ExchangeRemoteSerialized(benchmark::State& state) {
  const Table table = borrowed_table(fact(static_cast<std::size_t>(state.range(0))));
  auto store = storage::make_instant_store();
  std::size_t i = 0;
  for (auto _ : state) {
    exchange_round_trip(table, 0, 1, *store, "bench" + std::to_string(i++));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * table.byte_size()));
}
BENCHMARK(BM_ExchangeRemoteSerialized)->Arg(1000)->Arg(100000);

faults::FaultSpec g_fault_spec;  // set by --faults; defaults inject nothing

/// The remote path behind a FlakyStore + retrying exchange. With no
/// --faults this measures the resilience wiring's overhead (should be
/// indistinguishable from BM_ExchangeRemoteSerialized); with --faults
/// it measures the cost of absorbing the injected error rate.
void BM_ExchangeRemoteFlaky(benchmark::State& state) {
  const Table table = borrowed_table(fact(static_cast<std::size_t>(state.range(0))));
  auto store = storage::make_instant_store();
  faults::FaultInjector injector(g_fault_spec);
  faults::FlakyStore flaky(*store, injector);
  faults::RetryPolicy retry;  // defaults: 3 attempts, capped backoff
  std::size_t i = 0;
  for (auto _ : state) {
    exchange_round_trip(table, 0, 1, flaky, "bench" + std::to_string(i++), &retry);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * table.byte_size()));
  state.counters["injected_errors"] =
      static_cast<double>(injector.counts().storage_errors);
}
BENCHMARK(BM_ExchangeRemoteFlaky)->Arg(1000)->Arg(100000);

/// Best-of-N wall time of `fn` in seconds (one untimed warmup run).
template <typename F>
double time_best(int reps, F&& fn) {
  using clock = std::chrono::steady_clock;
  fn();
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = clock::now();
    fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s < best) best = s;
  }
  return best;
}

/// Times `base` and `cand` (best-of-`reps` each) with noise-tolerant
/// retries: if the ratio base/cand lands below `floor`, the pair is
/// re-measured up to two more times and the best ratio seen is kept.
/// A real regression misses the floor on every round; a scheduler
/// hiccup on a busy runner does not.
template <typename A, typename B>
std::pair<double, double> timed_ratio(double floor, int reps, A&& base, B&& cand) {
  double tb = time_best(reps, base);
  double tc = time_best(reps, cand);
  for (int retry = 0; retry < 2 && tb / tc < floor; ++retry) {
    const double tb2 = time_best(reps, base);
    const double tc2 = time_best(reps, cand);
    if (tb2 / tc2 > tb / tc) {
      tb = tb2;
      tc = tc2;
    }
  }
  return {tb, tc};
}

/// Store decorator that pays its model's transfer time in real wall
/// clock on every put and get — cross-server exchange then has the
/// latency/bandwidth profile the time model predicts, which is what
/// makes pipelined-vs-materialized wall times (and time-model drift)
/// meaningful on a single machine.
class DelayStore final : public storage::ObjectStore {
 public:
  DelayStore(storage::ObjectStore& inner, storage::StorageModel model)
      : inner_(&inner), model_(model) {}

  const char* kind() const override { return "delay"; }
  const storage::StorageModel& model() const override { return model_; }
  Status put(const std::string& key, std::string_view value) override {
    pay(value.size());
    return inner_->put(key, value);
  }
  Result<std::string> get(const std::string& key) const override {
    auto r = inner_->get(key);
    if (r.ok()) pay(r->size());
    return r;
  }
  bool contains(const std::string& key) const override { return inner_->contains(key); }
  Status remove(const std::string& key) override { return inner_->remove(key); }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  Bytes used_bytes() const override { return inner_->used_bytes(); }
  storage::StoreStats stats() const override { return inner_->stats(); }

 private:
  void pay(std::size_t n) const {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(model_.transfer_time(n)));
  }

  storage::ObjectStore* inner_;
  const storage::StorageModel model_;
};

std::string engine_sink_bytes(const EngineResult& result, StageId sink) {
  return *serialize_table(result.sink_outputs.at(sink));
}

cluster::PlacementPlan uniform_plan(const JobDag& dag, int dop, int servers) {
  cluster::PlacementPlan plan;
  plan.dop.assign(dag.num_stages(), dop);
  plan.task_server.resize(dag.num_stages());
  int next = 0;
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    plan.task_server[s].resize(dop);
    for (int t = 0; t < dop; ++t) {
      plan.task_server[s][t] = static_cast<ServerId>(next++ % servers);
    }
  }
  return plan;
}

/// Pipelined-shuffle self-check: the chunk-granular exchange must be
/// (a) strictly faster than materialized waves on a 48 MB cross-server
/// shuffle with transport modeled as real delay, (b) byte-identical to
/// waves under the PR 2 fault storm, and (c) closing — not widening —
/// the time-model drift on Q95 when the model's pipelining annotations
/// are matched by actual engine pipelining.
bool run_pipelined_quick_check() {
  constexpr double kPipelineFloor = 1.15;
  bool ok = true;

  // --- (a) 48 MB shuffle: scan (2 tasks) -> filter (2 tasks), all
  // four edges remote through a 1 GB/s store. Materialized pays
  // produce + transport + consume serially across the wave barrier;
  // chunked overlaps them.
  {
    JobDag dag("pipe-bench");
    const StageId scan = dag.add_stage("scan");
    const StageId filt = dag.add_stage("filter");
    (void)dag.add_edge(scan, filt, ExchangeKind::kShuffle);
    auto big = std::make_shared<const Table>(fact(1'000'000));
    cluster::PlacementPlan plan;
    plan.dop = {2, 2};
    plan.task_server = {{0, 1}, {2, 3}};

    std::map<StageId, StageBinding> bindings;
    bindings[scan] = StageBinding{
        [big](int task, int dop, const std::vector<Table>&) -> Result<Table> {
          return range_slice(big, task, dop);
        },
        "order_id"};
    const std::vector<ColumnPred> preds{pred_double("price", CmpOp::kGt, 25.0)};
    bindings[filt] = StageBinding{
        [preds](int, int, const std::vector<Table>& in) -> Result<Table> {
          return filter_cols(in.at(0), preds);
        },
        ""};
    bindings[filt].stream_fn =
        [preds](int, int, std::vector<TableChunkFn>& in) -> Result<Table> {
      return filter_stream(in.at(0), preds, nullptr);
    };

    storage::StorageModel transport;
    transport.request_latency = 0.0002;
    transport.bandwidth_bytes_per_s = 1e9;

    const auto run = [&](bool pipeline) -> Result<EngineResult> {
      auto inner = storage::make_instant_store();
      DelayStore store(*inner, transport);
      EngineOptions options;
      if (pipeline) options.stream_edges = {{scan, filt}};
      options.chunk_rows = 64 * 1024;
      MiniEngine engine(dag, plan, store, options);
      return engine.run(bindings);
    };

    const auto wave = run(false);
    const auto piped = run(true);
    if (!wave.ok() || !piped.ok()) {
      std::fprintf(stderr, "FAIL: pipelined shuffle bench run errored\n");
      return false;
    }
    if (engine_sink_bytes(*piped, filt) != engine_sink_bytes(*wave, filt)) {
      std::fprintf(stderr, "FAIL: pipelined shuffle output differs from materialized\n");
      ok = false;
    }
    if (piped->stats.exchange.chunks_published <= wave->stats.exchange.chunks_published) {
      std::fprintf(stderr, "FAIL: pipelined run did not actually chunk the stream\n");
      ok = false;
    }

    const auto [t_wave, t_piped] =
        timed_ratio(kPipelineFloor, 3, [&] { benchmark::DoNotOptimize(run(false)); },
                    [&] { benchmark::DoNotOptimize(run(true)); });
    const double speedup = t_wave / t_piped;
    std::fprintf(stderr,
                 "pipelined shuffle (48 MB, 1 GB/s transport): materialized %.1f ms, "
                 "chunked %.1f ms -> %.2fx (floor %.2fx)\n",
                 t_wave * 1e3, t_piped * 1e3, speedup, kPipelineFloor);
    if (speedup < kPipelineFloor) {
      std::fprintf(stderr, "FAIL: chunked shuffle not faster than materialized\n");
      ok = false;
    }
  }

  // --- (b) fault storm: the PR 2 chaos config against the chunked
  // path must leave the sink byte-identical to a fault-free
  // materialized run.
  {
    JobDag dag("pipe-chaos");
    const StageId scan = dag.add_stage("scan");
    const StageId filt = dag.add_stage("filter");
    const StageId agg = dag.add_stage("agg");
    (void)dag.add_edge(scan, filt, ExchangeKind::kShuffle);
    (void)dag.add_edge(filt, agg, ExchangeKind::kShuffle);
    auto rows = std::make_shared<const Table>(
        gen_fact_table({.rows = 60000, .num_warehouses = 16, .seed = 21}));
    cluster::PlacementPlan plan;
    plan.dop = {2, 2, 2};
    plan.task_server = {{0, 1}, {0, 1}, {1, 0}};

    std::map<StageId, StageBinding> bindings;
    bindings[scan] = StageBinding{
        [rows](int task, int dop, const std::vector<Table>&) -> Result<Table> {
          return range_slice(rows, task, dop);
        },
        "warehouse_id"};
    bindings[filt] = StageBinding{
        [](int, int, const std::vector<Table>& in) -> Result<Table> {
          return filter_cols(in.at(0), {pred_int("quantity", CmpOp::kGt, 20)});
        },
        "warehouse_id"};
    bindings[filt].stream_fn =
        [](int, int, std::vector<TableChunkFn>& in) -> Result<Table> {
      return filter_stream(in.at(0), {pred_int("quantity", CmpOp::kGt, 20)}, nullptr);
    };
    bindings[agg] = StageBinding{
        [](int, int, const std::vector<Table>& in) -> Result<Table> {
          return group_by(in.at(0), "warehouse_id",
                          {{AggKind::kSum, "quantity", "qty"}, {AggKind::kCount, "", "n"}});
        },
        ""};

    auto clean_store = storage::make_instant_store();
    MiniEngine clean(dag, plan, *clean_store);
    const auto base = clean.run(bindings);
    if (!base.ok()) {
      std::fprintf(stderr, "FAIL: fault-free baseline errored\n");
      return false;
    }

    auto spec = ditto::faults::parse_fault_spec(
        "storage_error=0.1,storage_delay=0.001@0.3,crash=1:0,hang=0:1:0.3,"
        "server_loss=1@1,seed=7");
    ditto::faults::FaultInjector injector(std::move(spec).value());
    auto inner = storage::make_instant_store();
    ditto::faults::FlakyStore flaky(*inner, injector);
    EngineOptions options;
    options.chunk_rows = 4096;
    // Stream only scan->filter so agg starts at a group boundary —
    // where the injector's server loss fires.
    options.stream_edges = {{scan, filt}};
    options.injector = &injector;
    options.resilience.speculation_factor = 2.0;
    options.resilience.speculation_min_wait = 0.01;
    options.resilience.storage.initial_backoff = 1e-4;
    options.resilience.storage.max_backoff = 1e-3;
    MiniEngine chaos_engine(dag, plan, flaky, options);
    const auto chaos = chaos_engine.run(bindings);
    if (!chaos.ok()) {
      std::fprintf(stderr, "FAIL: pipelined fault-storm run errored: %s\n",
                   chaos.status().to_string().c_str());
      return false;
    }
    const bool identical = engine_sink_bytes(*chaos, agg) == engine_sink_bytes(*base, agg);
    std::fprintf(stderr,
                 "pipelined fault storm: %zu storage errors, %zu server lost -> "
                 "sink %s\n",
                 injector.counts().storage_errors, injector.counts().servers_lost,
                 identical ? "byte-identical" : "DIFFERS");
    if (!identical || injector.counts().storage_errors == 0) {
      std::fprintf(stderr, "FAIL: fault storm broke pipelined byte-identity\n");
      ok = false;
    }
  }

  // --- (c) Q95 drift: with the model's pipelining annotations matched
  // by engine pipelining, the total predicted-vs-observed gap over the
  // streaming stages (reduce1/join1/join2) must not grow vs the
  // materialized run judged by the unannotated model.
  {
    const workload::EngineQuerySpec spec{
        .fact_rows = 200'000, .num_orders = 30'000, .seed = 1234};
    const workload::EngineJob job = workload::build_q95_engine_job(spec);
    JobDag model = job.dag;
    workload::PhysicsParams physics;
    physics.store = storage::redis_model();
    workload::apply_physics(model, physics);
    JobDag model_piped = model;
    (void)workload::pipeline_all_shuffles(model_piped);
    const ExecTimePredictor pred_plain(model);
    const ExecTimePredictor pred_piped(model_piped);

    constexpr int kDop = 3;
    const auto plan = uniform_plan(job.dag, kDop, /*servers=*/3);
    const auto run = [&](bool pipeline) -> Result<EngineResult> {
      auto inner = storage::make_instant_store();
      DelayStore store(*inner, storage::redis_model());
      EngineOptions options;
      if (pipeline) options.stream_edges = workload::pipelined_edges(model_piped);
      options.chunk_rows = 16384;
      MiniEngine engine(job.dag, plan, store, options);
      return engine.run(job.bindings);
    };
    const auto wave = run(false);
    const auto piped = run(true);
    if (!wave.ok() || !piped.ok()) {
      std::fprintf(stderr, "FAIL: Q95 drift bench run errored\n");
      return false;
    }
    const auto expected = workload::q95_engine_reference(job, spec);
    for (const auto* r : {&wave, &piped}) {
      const auto answer = workload::engine_answer_from_sink((*r)->sink_outputs.at(job.sink));
      if (!answer.ok() || answer->rows != expected.rows ||
          std::abs(answer->value - expected.value) > 1e-6 * std::max(1.0, expected.value)) {
        std::fprintf(stderr, "FAIL: Q95 answer mismatch in drift bench\n");
        ok = false;
      }
    }

    // Stage ids per build_q95_engine_job: reduce1=3, join1=5, join2=7.
    double gap_wave = 0.0, gap_piped = 0.0;
    for (const StageId s : {StageId{3}, StageId{5}, StageId{7}}) {
      const double pw = pred_plain.stage_time(s, kDop, nothing_colocated());
      const double pp = pred_piped.stage_time(s, kDop, nothing_colocated());
      gap_wave += std::abs(pw - wave->stats.stage_seconds.at(s));
      gap_piped += std::abs(pp - piped->stats.stage_seconds.at(s));
    }
    std::fprintf(stderr,
                 "Q95 drift (streaming stages): materialized gap %.1f ms, "
                 "pipelined gap %.1f ms (must not grow)\n",
                 gap_wave * 1e3, gap_piped * 1e3);
    if (gap_piped > gap_wave * 1.05 + 1e-9) {
      std::fprintf(stderr, "FAIL: engine pipelining widened Q95 time-model drift\n");
      ok = false;
    }
  }

  return ok;
}

/// Regression self-check (--quick): verifies the rebuilt data path is
/// both CORRECT (bit-equal results vs the legacy formulations) and
/// FASTER by at least the floors below. Non-zero exit on any miss, so
/// CI can gate on it.
int run_quick_check() {
  constexpr double kPartitionFloor = 1.5;
  constexpr double kSerdeFloor = 1.3;
  constexpr std::size_t kParts = 16;
  // Every timed floor below needs every core: warm the host first.
  std::fprintf(stderr, "host warm-up: %.2f s\n", ditto::bench::warm_host());
  const Table t = fact(1'000'000);
  bool ok = true;

  // --- partitioning: legacy per-row push_back index vectors + take ---
  const auto legacy_partition = [&t] {
    const auto keys = t.column_by_name("order_id").int_span();
    std::vector<std::vector<std::size_t>> buckets(kParts);
    for (std::size_t r = 0; r < keys.size(); ++r) {
      buckets[stable_hash64(keys[r]) % kParts].push_back(r);
    }
    std::vector<Table> out;
    out.reserve(kParts);
    for (const auto& b : buckets) out.push_back(t.take(b));
    return out;
  };
  const auto single_pass = [&t] {
    auto parts = hash_partition(t, "order_id", kParts);
    return std::move(parts).value();
  };
  {
    const std::vector<Table> want = legacy_partition();
    const std::vector<Table> got = single_pass();
    for (std::size_t p = 0; p < kParts; ++p) {
      if (!(want[p] == got[p])) {
        std::fprintf(stderr, "FAIL: single-pass partition differs at partition %zu\n", p);
        ok = false;
      }
    }
  }
  const auto [t_legacy, t_scatter] =
      timed_ratio(kPartitionFloor, 5, [&] { benchmark::DoNotOptimize(legacy_partition()); },
                  [&] { benchmark::DoNotOptimize(single_pass()); });
  const double part_speedup = t_legacy / t_scatter;
  std::fprintf(stderr, "partition: legacy %.1f ms, single-pass %.1f ms -> %.2fx (floor %.1fx)\n",
               t_legacy * 1e3, t_scatter * 1e3, part_speedup, kPartitionFloor);
  if (part_speedup < kPartitionFloor) {
    std::fprintf(stderr, "FAIL: partition speedup below floor\n");
    ok = false;
  }

  // --- serde: v1 owned parse vs v2 zero-copy parse ---
  const storage::Payload v1_bytes = serialize_table_v1(t);
  const storage::Payload v2_bytes = serialize_table(t);
  {
    const auto from_v1 = deserialize_table_v1(v1_bytes);
    const auto from_v2 = deserialize_table(v2_bytes);
    if (!from_v1.ok() || !(*from_v1 == t)) {
      std::fprintf(stderr, "FAIL: v1 payload did not round-trip\n");
      ok = false;
    }
    if (!from_v2.ok() || !(*from_v2 == t)) {
      std::fprintf(stderr, "FAIL: v2 zero-copy payload did not round-trip\n");
      ok = false;
    }
  }
  const double t_v1 = time_best(5, [&] {
    auto r = deserialize_table_v1(v1_bytes);
    benchmark::DoNotOptimize(r);
  });
  const double t_v2 = time_best(5, [&] {
    auto r = deserialize_table(v2_bytes);
    benchmark::DoNotOptimize(r);
  });
  const double serde_speedup = t_v1 / t_v2;
  std::fprintf(stderr, "deserialize: v1 owned %.2f ms, v2 zero-copy %.2f ms -> %.2fx (floor %.1fx)\n",
               t_v1 * 1e3, t_v2 * 1e3, serde_speedup, kSerdeFloor);
  if (serde_speedup < kSerdeFloor) {
    std::fprintf(stderr, "FAIL: zero-copy deserialize speedup below floor\n");
    ok = false;
  }

  // --- informational: end-to-end shuffle (partition + serialize each
  // partition + receiver-side parse). The receiver in both formulations
  // holds the payload (as after a store get); the v1 parse copies every
  // column out of it, the v2 parse borrows them in place. Not gated: the
  // ratio is dominated by raw byte movement common to both sides.
  const auto legacy_shuffle = [&] {
    std::vector<Table> received;
    received.reserve(kParts);
    for (const Table& part : legacy_partition()) {
      received.push_back(std::move(deserialize_table_v1(serialize_table_v1(part))).value());
    }
    return received;
  };
  const auto fast_shuffle = [&] {
    std::vector<Table> received;
    received.reserve(kParts);
    for (const Table& part : single_pass()) {
      received.push_back(std::move(deserialize_table(serialize_table(part))).value());
    }
    return received;
  };
  {
    const std::vector<Table> want = legacy_shuffle();
    const std::vector<Table> got = fast_shuffle();
    for (std::size_t p = 0; p < kParts; ++p) {
      if (!(want[p] == got[p])) {
        std::fprintf(stderr, "FAIL: shuffle results differ at partition %zu\n", p);
        ok = false;
      }
    }
  }
  const double t_shuffle_legacy = time_best(5, [&] { benchmark::DoNotOptimize(legacy_shuffle()); });
  const double t_shuffle_fast = time_best(5, [&] { benchmark::DoNotOptimize(fast_shuffle()); });
  std::fprintf(stderr, "shuffle round trip: legacy %.1f ms, new %.1f ms -> %.2fx (informational)\n",
               t_shuffle_legacy * 1e3, t_shuffle_fast * 1e3, t_shuffle_legacy / t_shuffle_fast);

  // --- operator kernels: columnar group-by / join / filter vs the
  // row-at-a-time reference formulations. Correctness is gated
  // unconditionally (bit-identical output, owned AND borrowed columns,
  // serial AND parallel). The serial group-by floor is gated
  // unconditionally too. The 8-vs-1-thread scaling floors adapt to the
  // host: full floor with >= 8 cores, a scaled floor on 4-core CI
  // runners, report-only below 2 cores (scaling is meaningless there).
  {
    const unsigned hw = std::thread::hardware_concurrency();
    constexpr double kGroupBySerialFloor = 3.0;
    const double scale_floor = hw >= 8 ? 2.5 : hw >= 4 ? 1.6 : hw >= 2 ? 1.2 : 0.0;

    const Table big = kernel_fact();
    const Table big_borrowed = borrowed_table(big);
    const Table orders = gen_dim_table(250'000, 4, 9);
    const std::vector<AggSpec>& aggs = kernel_aggs();
    ThreadPool pool1(1);
    ThreadPool pool8(8);

    const auto check_equal = [&ok](const char* what, const Result<Table>& want,
                                   const Result<Table>& got) {
      if (!want.ok() || !got.ok() || !(*want == *got)) {
        std::fprintf(stderr, "FAIL: kernel output differs from reference (%s)\n", what);
        ok = false;
      }
    };

    const auto gb_want = reference::group_by(big, "order_id", aggs);
    check_equal("group_by serial", gb_want, group_by(big, "order_id", aggs, &pool1));
    check_equal("group_by 8t", gb_want, group_by(big, "order_id", aggs, &pool8));
    check_equal("group_by borrowed 8t", gb_want,
                group_by(big_borrowed, "order_id", aggs, &pool8));

    const auto join_want = reference::hash_join(big, "order_id", orders, "id");
    check_equal("join serial", join_want,
                hash_join(big, "order_id", orders, "id", JoinKind::kInner, &pool1));
    check_equal("join 8t", join_want,
                hash_join(big, "order_id", orders, "id", JoinKind::kInner, &pool8));
    check_equal("join borrowed 8t", join_want,
                hash_join(big_borrowed, "order_id", orders, "id", JoinKind::kInner, &pool8));

    const std::vector<ColumnPred> preds{pred_double("price", CmpOp::kGt, 50.0),
                                        pred_int("warehouse_id", CmpOp::kLt, 8)};
    const auto f_want = reference::filter_cols(big, preds);
    check_equal("filter serial", f_want, filter_cols(big, preds, &pool1));
    check_equal("filter 8t", f_want, filter_cols(big, preds, &pool8));
    check_equal("filter borrowed 8t", f_want, filter_cols(big_borrowed, preds, &pool8));

    std::fprintf(stderr, "kernel paths: group-by %s, inner-join build %s\n",
                 group_by_path(big), inner_join_build(orders));

    const auto gb_ref_fn = [&] {
      benchmark::DoNotOptimize(reference::group_by(big, "order_id", aggs));
    };
    const auto gb1_fn = [&] {
      benchmark::DoNotOptimize(group_by(big, "order_id", aggs, &pool1));
    };
    const auto gb8_fn = [&] {
      benchmark::DoNotOptimize(group_by(big, "order_id", aggs, &pool8));
    };
    const auto [t_gb_ref, t_gb1] = timed_ratio(kGroupBySerialFloor, 3, gb_ref_fn, gb1_fn);
    const double gb_serial_speedup = t_gb_ref / t_gb1;
    std::fprintf(stderr,
                 "group-by: reference %.1f ms, kernel 1t %.1f ms -> %.2fx (floor %.1fx)\n",
                 t_gb_ref * 1e3, t_gb1 * 1e3, gb_serial_speedup, kGroupBySerialFloor);
    if (gb_serial_speedup < kGroupBySerialFloor) {
      std::fprintf(stderr, "FAIL: serial group-by speedup below floor\n");
      ok = false;
    }

    // --- informational: the same group-by on sparse keys (order_id
    // spread over the whole int64 range by an odd multiplier), which
    // takes the radix hash path instead of the dense one.
    {
      std::vector<Column> cols;
      for (std::size_t c = 0; c < big.num_columns(); ++c) cols.push_back(big.column(c));
      const auto dense_ids = big.column_by_name("order_id").int_span();
      std::vector<std::int64_t> ids(dense_ids.size());
      for (std::size_t r = 0; r < ids.size(); ++r) {
        ids[r] = static_cast<std::int64_t>(static_cast<std::uint64_t>(dense_ids[r]) *
                                           0x9e3779b97f4a7c15ull);
      }
      cols[static_cast<std::size_t>(big.column_index("order_id"))] = Column(std::move(ids));
      const Table sparse = std::move(Table::make(big.schema(), std::move(cols))).value();
      const auto sparse_want = reference::group_by(sparse, "order_id", aggs);
      check_equal("group_by sparse 1t", sparse_want, group_by(sparse, "order_id", aggs, &pool1));
      check_equal("group_by sparse 8t", sparse_want, group_by(sparse, "order_id", aggs, &pool8));
      const double t_s1 = time_best(3, [&] {
        benchmark::DoNotOptimize(group_by(sparse, "order_id", aggs, &pool1));
      });
      const double t_s8 = time_best(3, [&] {
        benchmark::DoNotOptimize(group_by(sparse, "order_id", aggs, &pool8));
      });
      std::fprintf(stderr,
                   "group-by sparse keys (%s path): kernel 1t %.1f ms, 8t %.1f ms, "
                   "dense 1t %.1f ms (informational)\n",
                   group_by_path(sparse), t_s1 * 1e3, t_s8 * 1e3, t_gb1 * 1e3);
    }

    const auto j1_fn = [&] {
      benchmark::DoNotOptimize(
          hash_join(big, "order_id", orders, "id", JoinKind::kInner, &pool1));
    };
    const auto j8_fn = [&] {
      benchmark::DoNotOptimize(
          hash_join(big, "order_id", orders, "id", JoinKind::kInner, &pool8));
    };
    const auto [t_gb1s, t_gb8] = timed_ratio(scale_floor, 3, gb1_fn, gb8_fn);
    const auto [t_j1, t_j8] = timed_ratio(scale_floor, 3, j1_fn, j8_fn);

    const double gb_scaling = t_gb1s / t_gb8;
    const double join_scaling = t_j1 / t_j8;
    std::fprintf(stderr,
                 "group-by scaling: 1t %.1f ms, 8t %.1f ms -> %.2fx "
                 "(floor %.1fx, %u hw threads)\n",
                 t_gb1s * 1e3, t_gb8 * 1e3, gb_scaling, scale_floor, hw);
    std::fprintf(stderr,
                 "join scaling: 1t %.1f ms, 8t %.1f ms -> %.2fx "
                 "(floor %.1fx, %u hw threads)\n",
                 t_j1 * 1e3, t_j8 * 1e3, join_scaling, scale_floor, hw);
    if (scale_floor > 0.0) {
      if (gb_scaling < scale_floor) {
        std::fprintf(stderr, "FAIL: group-by parallel scaling below floor\n");
        ok = false;
      }
      if (join_scaling < scale_floor) {
        std::fprintf(stderr, "FAIL: join parallel scaling below floor\n");
        ok = false;
      }
    } else {
      std::fprintf(stderr, "scaling floors skipped: host has < 2 hardware threads\n");
    }

    const double t_f_ref = time_best(3, [&] {
      benchmark::DoNotOptimize(reference::filter_cols(big, preds));
    });
    const double t_f8 = time_best(3, [&] {
      benchmark::DoNotOptimize(filter_cols(big, preds, &pool8));
    });
    std::fprintf(stderr,
                 "filter: reference %.2f ms, kernel 8t %.2f ms -> %.2fx (informational)\n",
                 t_f_ref * 1e3, t_f8 * 1e3, t_f_ref / t_f8);
  }

  if (!run_pipelined_quick_check()) ok = false;

  std::fprintf(stderr, "%s\n", ok ? "quick check PASSED" : "quick check FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return run_quick_check();
  }
  // Strip --trace-out before google-benchmark sees the argv; it rejects
  // flags it does not know.
  std::string trace_out;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      auto parsed = ditto::faults::parse_fault_spec(argv[++i]);
      if (!parsed.ok()) {
        std::fprintf(stderr, "fault spec error: %s\n", parsed.status().to_string().c_str());
        return 2;
      }
      g_fault_spec = std::move(parsed).value();
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!trace_out.empty()) ditto::obs::set_observability_enabled(true);

  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!trace_out.empty()) {
    ditto::obs::TraceCollector& tc = ditto::obs::TraceCollector::global();
    const ditto::Status st = tc.write_chrome_json(trace_out);
    if (!st.is_ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", st.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu events written to %s\n", tc.size(), trace_out.c_str());
    std::fprintf(stderr, "%s", ditto::obs::MetricsRegistry::global().to_text().c_str());
  }
  return 0;
}
