// Pipelined engine mode (EngineOptions::stream_edges, paper §4.5): the
// wave loop fuses stages connected by streaming shuffle edges into
// overlap groups, producers publish chunk streams and consumers start
// on the first arrived chunk. These tests pin the two promises the
// mode makes:
//   1. results are BYTE-IDENTICAL to classic wave execution, including
//      under the fault storm (crashes, hangs, storage errors, server
//      loss) — pipelining changes timing, never data;
//   2. the overlap is real: a streaming consumer's overlap-adjusted
//      stage time shrinks toward the tail the annotated time model
//      predicts, closing the model/engine pipelining gap.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "exec/datagen.h"
#include "exec/engine.h"
#include "exec/operators.h"
#include "exec/serde.h"
#include "faults/fault_injector.h"
#include "faults/flaky_store.h"
#include "storage/sim_store.h"

namespace ditto::exec {
namespace {

cluster::PlacementPlan plan_for(std::vector<int> dop,
                                std::vector<std::vector<ServerId>> servers) {
  cluster::PlacementPlan plan;
  plan.dop = std::move(dop);
  plan.task_server = std::move(servers);
  return plan;
}

std::string sink_bytes(const EngineResult& result, StageId sink) {
  return *serialize_table(result.sink_outputs.at(sink));
}

/// scan -> (shuffle) filter -> (`tail`) agg: the middle stage streams
/// (filter is order-preserving), the last gathers-on-last-chunk
/// (group-by is blocking). Pipelined runs stream both shuffle edges.
struct PipeJob {
  JobDag dag{"pipe"};
  StageId scan, filt, agg;
  Table fact;
  cluster::PlacementPlan plan;

  explicit PipeJob(ExchangeKind tail = ExchangeKind::kShuffle) {
    scan = dag.add_stage("scan");
    filt = dag.add_stage("filter");
    agg = dag.add_stage("agg");
    EXPECT_TRUE(dag.add_edge(scan, filt, ExchangeKind::kShuffle).is_ok());
    EXPECT_TRUE(dag.add_edge(filt, agg, tail).is_ok());
    fact = gen_fact_table({.rows = 60000, .num_warehouses = 16, .seed = 21});
    plan = plan_for({2, 2, 2}, {{0, 1}, {0, 1}, {1, 0}});
  }

  std::map<StageId, StageBinding> bindings() const {
    std::map<StageId, StageBinding> b;
    b[scan] = StageBinding{
        [src = std::make_shared<const Table>(fact)](int task, int dop,
                                                    const std::vector<Table>&) -> Result<Table> {
          return range_slice(src, task, dop);
        },
        "warehouse_id"};
    b[filt] = StageBinding{
        [](int, int, const std::vector<Table>& in) -> Result<Table> {
          return filter_cols(in.at(0), {pred_int("quantity", CmpOp::kGt, 20)});
        },
        "warehouse_id"};
    b[filt].stream_fn =
        [](int, int, std::vector<TableChunkFn>& in) -> Result<Table> {
      return filter_stream(in.at(0), {pred_int("quantity", CmpOp::kGt, 20)}, nullptr);
    };
    b[agg] = StageBinding{
        [](int, int, const std::vector<Table>& in) -> Result<Table> {
          return group_by(in.at(0), "warehouse_id",
                          {{AggKind::kSum, "quantity", "qty"}, {AggKind::kCount, "", "n"}});
        },
        ""};
    return b;
  }
};

Result<EngineResult> run_job(const PipeJob& job, bool pipeline,
                             std::size_t chunk_rows = 4096) {
  auto store = storage::make_instant_store();
  EngineOptions options;
  if (pipeline) options.stream_edges = {{job.scan, job.filt}, {job.filt, job.agg}};
  options.chunk_rows = chunk_rows;
  MiniEngine engine(job.dag, job.plan, *store, options);
  return engine.run(job.bindings());
}

TEST(EnginePipelineTest, PipelinedMatchesMaterializedByteIdentically) {
  const PipeJob job;
  const auto base = run_job(job, /*pipeline=*/false);
  ASSERT_TRUE(base.ok()) << base.status().to_string();
  const auto piped = run_job(job, /*pipeline=*/true);
  ASSERT_TRUE(piped.ok()) << piped.status().to_string();

  EXPECT_EQ(sink_bytes(*piped, job.agg), sink_bytes(*base, job.agg));
  // The pipelined run actually chunked: 60k rows / 4096-row chunks
  // means each scan task streams several chunks.
  EXPECT_GT(piped->stats.exchange.chunks_published,
            base->stats.exchange.chunks_published);
  EXPECT_GT(piped->stats.exchange.chunks_consumed, 0u);
}

TEST(EnginePipelineTest, ChunkSizeDoesNotChangeResults) {
  const PipeJob job;
  const auto base = run_job(job, false);
  ASSERT_TRUE(base.ok());
  const std::string expected = sink_bytes(*base, job.agg);
  for (const std::size_t chunk_rows : {512u, 7000u, 1u << 20}) {
    const auto piped = run_job(job, true, chunk_rows);
    ASSERT_TRUE(piped.ok()) << piped.status().to_string();
    EXPECT_EQ(sink_bytes(*piped, job.agg), expected) << "chunk_rows=" << chunk_rows;
  }
}

TEST(EnginePipelineTest, SharedPoolsRejectStreamEdges) {
  // Shared pools (the multi-job service) run classic waves: asking
  // them to stream is an error, not a silent fallback to waves.
  const PipeJob job;
  auto store = storage::make_instant_store();
  ServerPools pools({8, 8});
  EngineOptions options;
  options.stream_edges = {{job.scan, job.filt}};
  options.pools = &pools;
  MiniEngine engine(job.dag, job.plan, *store, options);
  const auto shared = engine.run(job.bindings());
  ASSERT_FALSE(shared.ok());
  EXPECT_EQ(shared.status().code(), StatusCode::kInvalidArgument);
}

TEST(EnginePipelineTest, NonShuffleStreamEdgeIsRejected) {
  // Only shuffle edges stream; a listed gather edge, or a pair that is
  // no edge at all, is an error instead of being silently ignored.
  const PipeJob job(ExchangeKind::kGather);
  for (const auto& edge :
       {std::pair{job.filt, job.agg}, std::pair{job.scan, job.agg}}) {
    auto store = storage::make_instant_store();
    EngineOptions options;
    options.stream_edges = {{job.scan, job.filt}, edge};
    MiniEngine engine(job.dag, job.plan, *store, options);
    const auto result = engine.run(job.bindings());
    ASSERT_FALSE(result.ok()) << edge.first << "->" << edge.second;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EnginePipelineTest, FaultStormPreservesByteIdentity) {
  // The PR 2 chaos config on the pipelined path: crashes, hangs,
  // storage errors and a server loss hit the chunk streams, and the
  // sinks must still match the fault-free materialized run.
  const PipeJob job;
  const auto base = run_job(job, false);
  ASSERT_TRUE(base.ok());
  const std::string expected = sink_bytes(*base, job.agg);

  const auto spec = faults::parse_fault_spec(
      "storage_error=0.1,storage_delay=0.001@0.3,crash=1:0,hang=0:1:0.3,"
      "server_loss=1@1,seed=7");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  faults::FaultInjector injector(*spec);
  auto store = storage::make_instant_store();
  faults::FlakyStore flaky(*store, injector);
  EngineOptions options;
  options.chunk_rows = 4096;
  // Stream only scan->filter: the agg stage then starts at a group
  // boundary, which is where the injector's server loss fires — the
  // recovery path must re-drive the lost chunk streams from chunk 0.
  options.stream_edges = {{job.scan, job.filt}};
  options.injector = &injector;
  options.resilience.speculation_factor = 2.0;
  options.resilience.speculation_min_wait = 0.01;
  options.resilience.storage.initial_backoff = 1e-4;
  options.resilience.storage.max_backoff = 1e-3;
  MiniEngine engine(job.dag, job.plan, flaky, options);
  const auto chaos = engine.run(job.bindings());
  ASSERT_TRUE(chaos.ok()) << chaos.status().to_string();

  EXPECT_EQ(sink_bytes(*chaos, job.agg), expected);
  // The storm really fired and was absorbed.
  EXPECT_GT(injector.counts().storage_errors, 0u);
  EXPECT_EQ(injector.counts().servers_lost, 1u);
  EXPECT_EQ(chaos->stats.resilience.servers_lost, 1u);
}

/// Wrapper adding a fixed real delay to every put — a deterministic
/// stand-in for cross-server transport time, so each published chunk
/// arrives one "transfer" after the previous one.
class SlowPutStore final : public storage::ObjectStore {
 public:
  SlowPutStore(storage::ObjectStore& inner, std::chrono::milliseconds delay)
      : inner_(&inner), delay_(delay) {}

  const char* kind() const override { return "slow-put"; }
  const storage::StorageModel& model() const override { return inner_->model(); }
  Status put(const std::string& key, std::string_view value) override {
    std::this_thread::sleep_for(delay_);
    return inner_->put(key, value);
  }
  Result<std::string> get(const std::string& key) const override { return inner_->get(key); }
  bool contains(const std::string& key) const override { return inner_->contains(key); }
  Status remove(const std::string& key) override { return inner_->remove(key); }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  Bytes used_bytes() const override { return inner_->used_bytes(); }
  storage::StoreStats stats() const override { return inner_->stats(); }

 private:
  storage::ObjectStore* inner_;
  const std::chrono::milliseconds delay_;
};

/// Producer's chunks each take one slow transport hop; the streaming
/// consumer does per-chunk compute. Pipelined, the consumer overlaps
/// transport + its own work with the producer's publish loop, so its
/// overlap-adjusted stage time collapses to roughly one chunk's tail;
/// materialized, it pays the full serial cost after the producer
/// finishes. This is the measured version of the time model's
/// pipelining credit — the drift-honesty satellite.
struct OverlapJob {
  JobDag dag{"overlap"};
  StageId src, dst;
  Table rows;
  cluster::PlacementPlan plan;
  static constexpr int kChunks = 6;
  static constexpr std::chrono::milliseconds kStep{15};

  OverlapJob() {
    src = dag.add_stage("src");
    dst = dag.add_stage("dst");
    EXPECT_TRUE(dag.add_edge(src, dst, ExchangeKind::kShuffle).is_ok());
    rows = gen_fact_table({.rows = kChunks * 100, .seed = 5});
    // Different servers: the edge is remote, every chunk pays the slow
    // put, which is what the pipelined mode overlaps.
    plan = plan_for({1, 1}, {{0}, {1}});
  }

  std::map<StageId, StageBinding> bindings() const {
    std::map<StageId, StageBinding> b;
    b[src] = StageBinding{
        [this](int, int, const std::vector<Table>&) -> Result<Table> { return rows; },
        "warehouse_id"};
    b[dst] = StageBinding{
        [](int, int, const std::vector<Table>& in) -> Result<Table> {
          std::this_thread::sleep_for(kStep * kChunks);
          return in.at(0);
        },
        ""};
    b[dst].stream_fn = [](int, int, std::vector<TableChunkFn>& in) -> Result<Table> {
      std::vector<Table> chunks;
      while (true) {
        DITTO_ASSIGN_OR_RETURN(auto chunk, in.at(0)());
        if (!chunk.has_value()) break;
        std::this_thread::sleep_for(kStep);  // per-chunk work
        chunks.push_back(std::move(*chunk));
      }
      if (chunks.empty()) return Status::invalid_argument("empty stream");
      return concat_tables(std::move(chunks));
    };
    return b;
  }
};

TEST(EnginePipelineTest, OverlapShrinksObservedStageTimeTowardPrediction) {
  const OverlapJob job;

  auto run = [&](bool pipeline) -> EngineStats {
    auto inner = storage::make_instant_store();
    SlowPutStore store(*inner, OverlapJob::kStep);
    EngineOptions options;
    if (pipeline) options.stream_edges = {{job.src, job.dst}};
    options.chunk_rows = 100;  // 600 rows -> 6 chunks
    MiniEngine engine(job.dag, job.plan, store, options);
    auto result = engine.run(job.bindings());
    EXPECT_TRUE(result.ok()) << result.status().to_string();
    return result->stats;
  };

  const EngineStats wave = run(false);
  const EngineStats piped = run(true);
  ASSERT_EQ(wave.stage_seconds.size(), 2u);
  ASSERT_EQ(piped.stage_seconds.size(), 2u);

  // Materialized: dst pays its full serial cost (~kChunks * kStep).
  const double serial = std::chrono::duration<double>(OverlapJob::kStep).count() *
                        OverlapJob::kChunks;
  EXPECT_GT(wave.stage_seconds[job.dst], 0.6 * serial);
  // Pipelined: dst is charged only its tail past src's completion.
  // Generous margin (half the serial cost) keeps this robust on loaded
  // CI machines while still proving the overlap happened.
  EXPECT_LT(piped.stage_seconds[job.dst], 0.5 * serial);
  EXPECT_LT(piped.stage_seconds[job.dst], wave.stage_seconds[job.dst]);

  // Drift honesty: against the annotated model's prediction (the tail,
  // ~1 chunk of work), the pipelined run's relative error is smaller
  // than the materialized run's — enabling engine pipelining closes
  // the gap the model was promising.
  const double predicted_tail =
      std::chrono::duration<double>(OverlapJob::kStep).count();
  const double drift_piped =
      std::abs(piped.stage_seconds[job.dst] - predicted_tail) / predicted_tail;
  const double drift_wave =
      std::abs(wave.stage_seconds[job.dst] - predicted_tail) / predicted_tail;
  EXPECT_LT(drift_piped, drift_wave);
}

}  // namespace
}  // namespace ditto::exec
