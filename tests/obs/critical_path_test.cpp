// Critical-path attribution over synthetic RuntimeMonitor records:
// path selection (latest-finishing parents), queue/compute/transport/
// straggler attribution, and the Perfetto track export. One real Q95
// engine run per mode checks the path fits in the JCT.
#include "obs/critical_path.h"

#include <gtest/gtest.h>

#include "dag/dag_builder.h"
#include "exec/engine.h"
#include "storage/sim_store.h"
#include "workload/engine_queries.h"
#include "workload/physics.h"
#include "workload/pipelining.h"

namespace ditto::obs {
namespace {

cluster::TaskRecord record(StageId stage, TaskId task, double start, double end,
                           double read = 0.0, double compute = 0.0, double write = 0.0) {
  cluster::TaskRecord r;
  r.stage = stage;
  r.task = task;
  r.server = 0;
  r.start = start;
  r.end = end;
  r.read_time = read;
  r.compute_time = compute;
  r.write_time = write;
  return r;
}

/// Diamond: scan_a and scan_b feed join, join feeds sink.
JobDag diamond() {
  auto dag = DagBuilder("diamond")
                 .stage("scan_a", {.op = "map"})
                 .stage("scan_b", {.op = "map"})
                 .stage("join", {.op = "join"})
                 .stage("sink", {.op = "map"})
                 .edge("scan_a", "join")
                 .edge("scan_b", "join")
                 .edge("join", "sink")
                 .build();
  EXPECT_TRUE(dag.ok());
  return *std::move(dag);
}

TEST(CriticalPathTest, EmptyMonitorYieldsEmptySection) {
  const JobDag dag = diamond();
  const cluster::RuntimeMonitor monitor;
  const CriticalPathSection section = build_critical_path(dag, monitor);
  EXPECT_TRUE(section.empty());
  EXPECT_EQ(section.total_seconds, 0.0);
}

TEST(CriticalPathTest, FollowsLatestFinishingParent) {
  const JobDag dag = diamond();
  cluster::RuntimeMonitor monitor;
  // scan_a ends at 1.0; scan_b ends at 2.0 and therefore gates the join.
  monitor.record(record(0, 0, 0.0, 1.0, 0.1, 0.7, 0.1));
  monitor.record(record(1, 0, 0.0, 2.0, 0.2, 1.5, 0.2));
  // join waits 0.5 s after scan_b, runs 2.5 -> 4.0.
  monitor.record(record(2, 0, 2.5, 4.0, 0.3, 1.0, 0.1));
  // sink starts immediately, ends at 5.0.
  monitor.record(record(3, 0, 4.0, 5.0, 0.2, 0.6, 0.1));

  const CriticalPathSection section = build_critical_path(dag, monitor);
  ASSERT_EQ(section.entries.size(), 3u);
  EXPECT_EQ(section.entries[0].name, "scan_b");  // source -> sink order
  EXPECT_EQ(section.entries[1].name, "join");
  EXPECT_EQ(section.entries[2].name, "sink");
  EXPECT_DOUBLE_EQ(section.total_seconds, 5.0);

  const CriticalPathEntry& join = section.entries[1];
  EXPECT_DOUBLE_EQ(join.queue_seconds, 0.5);   // 2.5 - scan_b's 2.0
  EXPECT_DOUBLE_EQ(join.compute_seconds, 1.0);
  EXPECT_NEAR(join.transport_seconds, 0.4, 1e-12);
  EXPECT_NEAR(join.straggler_seconds, 1.5 - 1.0 - 0.4, 1e-12);  // window residual
  EXPECT_DOUBLE_EQ(section.entries[2].queue_seconds, 0.0);  // back-to-back

  // path = sum of queue + window along the chain.
  EXPECT_NEAR(section.path_seconds, 2.0 + (0.5 + 1.5) + 1.0, 1e-12);
  EXPECT_NEAR(section.queue_seconds, 0.5, 1e-12);
}

TEST(CriticalPathTest, PipelinedStageIsChargedOnlyItsTailPastTheGate) {
  const JobDag dag = diamond();
  cluster::RuntimeMonitor monitor;
  // Pipelined: join starts on scan_b's first chunk (0.2) and sink on
  // join's (0.4), long before their gates end.
  monitor.record(record(0, 0, 0.0, 1.0, 0.0, 0.9, 0.0));
  monitor.record(record(1, 0, 0.0, 2.0, 0.0, 1.8, 0.0));
  monitor.record(record(2, 0, 0.2, 2.5, 0.0, 2.0, 0.0));
  monitor.record(record(3, 0, 0.4, 3.0, 0.0, 2.5, 0.0));

  const CriticalPathSection section = build_critical_path(dag, monitor);
  ASSERT_EQ(section.entries.size(), 3u);
  EXPECT_DOUBLE_EQ(section.entries[1].start, 2.0);  // clamped to scan_b's end
  EXPECT_DOUBLE_EQ(section.entries[2].start, 2.5);  // clamped to join's end
  for (const CriticalPathEntry& e : section.entries) EXPECT_EQ(e.queue_seconds, 0.0);
  // The windows tile the job instead of overlapping: 2.0 + 0.5 + 0.5.
  EXPECT_NEAR(section.path_seconds, 3.0, 1e-12);
  EXPECT_LE(section.path_seconds, section.total_seconds + 1e-12);
  // Compute is charged for the tail only: the unclamped source keeps its
  // task mean, the join 0.5 of its 2.3 s span, the sink 0.5 of 2.6 s.
  EXPECT_DOUBLE_EQ(section.entries[0].compute_seconds, 1.8);
  EXPECT_NEAR(section.entries[1].compute_seconds, 2.0 * 0.5 / 2.3, 1e-12);
  EXPECT_NEAR(section.entries[2].compute_seconds, 2.5 * 0.5 / 2.6, 1e-12);
  for (const CriticalPathEntry& e : section.entries) {
    EXPECT_LE(e.compute_seconds + e.transport_seconds + e.straggler_seconds,
              e.window_seconds() + 1e-12)
        << e.name;
  }
}

TEST(CriticalPathTest, StageEndingBeforeItsGateIsChargedNothing) {
  const JobDag dag = diamond();
  cluster::RuntimeMonitor monitor;
  // join finishes (1.5) before its gate scan_b does (2.0); the sink ends
  // last, so join is on the path with an empty window.
  monitor.record(record(0, 0, 0.0, 1.0, 0.0, 0.9, 0.0));
  monitor.record(record(1, 0, 0.0, 2.0, 0.0, 1.8, 0.0));
  monitor.record(record(2, 0, 0.2, 1.5, 0.1, 1.0, 0.1));
  monitor.record(record(3, 0, 2.0, 3.0, 0.0, 0.8, 0.0));
  const CriticalPathSection section = build_critical_path(dag, monitor);
  ASSERT_EQ(section.entries.size(), 3u);
  const CriticalPathEntry& join = section.entries[1];
  EXPECT_EQ(join.window_seconds(), 0.0);
  EXPECT_EQ(join.compute_seconds, 0.0);
  EXPECT_EQ(join.transport_seconds, 0.0);
  EXPECT_EQ(join.straggler_seconds, 0.0);
}

TEST(CriticalPathTest, EnginePathFitsInJctInWavesAndPipelinedRuns) {
  const workload::EngineJob job =
      workload::build_q95_engine_job({.fact_rows = 20000, .num_orders = 3000, .seed = 1234});
  JobDag piped = job.dag;
  workload::apply_physics(piped, workload::PhysicsParams{});
  ASSERT_GT(workload::pipeline_all_shuffles(piped), 0);

  cluster::PlacementPlan plan;
  plan.dop.assign(job.dag.num_stages(), 3);
  plan.task_server.assign(job.dag.num_stages(), {0, 1, 2});
  for (const bool pipeline : {false, true}) {
    auto store = storage::make_instant_store();
    exec::EngineOptions options;
    if (pipeline) options.stream_edges = workload::pipelined_edges(piped);
    options.chunk_rows = 1024;
    exec::MiniEngine engine(job.dag, plan, *store, options);
    cluster::RuntimeMonitor monitor;
    const auto result = engine.run(job.bindings, &monitor);
    ASSERT_TRUE(result.ok()) << result.status().to_string();

    const CriticalPathSection section = build_critical_path(job.dag, monitor);
    ASSERT_FALSE(section.empty());
    EXPECT_LE(section.path_seconds, section.total_seconds + 1e-9) << "pipeline " << pipeline;
    // Every share of the path is at most 100%, and no entry is charged
    // more than its window.
    for (const double part : {section.queue_seconds, section.compute_seconds,
                              section.transport_seconds, section.straggler_seconds}) {
      EXPECT_LE(part, section.path_seconds + 1e-9) << "pipeline " << pipeline;
    }
    for (const CriticalPathEntry& e : section.entries) {
      EXPECT_LE(e.compute_seconds + e.transport_seconds + e.straggler_seconds,
                e.window_seconds() + 1e-9)
          << e.name << " pipeline " << pipeline;
    }
    if (!pipeline) {
      // Waves: every stage starts after its gate ends, so each window
      // is the stage's observed span and compute/transport are the
      // stage's task means, as before the overlap clamp.
      for (const CriticalPathEntry& e : section.entries) {
        EXPECT_EQ(e.start, monitor.stage_summary(e.stage).stage_start) << e.name;
        const auto records = monitor.records_for_stage(e.stage);
        ASSERT_FALSE(records.empty()) << e.name;
        double compute = 0.0, transport = 0.0;
        for (const cluster::TaskRecord& r : records) {
          compute += r.compute_time;
          transport += r.read_time + r.write_time;
        }
        const double n = static_cast<double>(records.size());
        EXPECT_DOUBLE_EQ(e.compute_seconds, compute / n) << e.name;
        EXPECT_DOUBLE_EQ(e.transport_seconds, transport / n) << e.name;
      }
    }
  }
}

TEST(CriticalPathTest, StragglerIsWindowBeyondMeanTask) {
  const JobDag dag = diamond();
  cluster::RuntimeMonitor monitor;
  // Two scan_a tasks: one fast, one 4x straggler. Mean compute = 1.0,
  // window = 4.0, so 3.0 s is attributed to skew.
  monitor.record(record(0, 0, 0.0, 1.0, 0.0, 0.5, 0.0));
  monitor.record(record(0, 1, 0.0, 4.0, 0.0, 1.5, 0.0));
  monitor.record(record(2, 0, 4.0, 5.0, 0.0, 0.9, 0.0));
  monitor.record(record(3, 0, 5.0, 6.0, 0.0, 0.8, 0.0));

  const CriticalPathSection section = build_critical_path(dag, monitor);
  ASSERT_EQ(section.entries.size(), 3u);
  const CriticalPathEntry& scan = section.entries[0];
  EXPECT_EQ(scan.name, "scan_a");
  EXPECT_EQ(scan.tasks, 2u);
  EXPECT_DOUBLE_EQ(scan.compute_seconds, 1.0);
  EXPECT_NEAR(scan.straggler_seconds, 3.0, 1e-12);
}

TEST(CriticalPathTest, SkipsUnobservedParents) {
  const JobDag dag = diamond();
  cluster::RuntimeMonitor monitor;
  // scan_b never ran (e.g. pruned); the walk must not dereference it.
  monitor.record(record(0, 0, 0.0, 1.0, 0.0, 0.9, 0.0));
  monitor.record(record(2, 0, 1.0, 2.0, 0.0, 0.8, 0.0));
  const CriticalPathSection section = build_critical_path(dag, monitor);
  ASSERT_EQ(section.entries.size(), 2u);
  EXPECT_EQ(section.entries[0].name, "scan_a");
  EXPECT_EQ(section.entries[1].name, "join");
}

TEST(CriticalPathTest, ExportsPerfettoTrackAtReservedPid) {
  const JobDag dag = diamond();
  cluster::RuntimeMonitor monitor;
  monitor.record(record(0, 0, 0.0, 1.0, 0.0, 0.9, 0.0));
  monitor.record(record(2, 0, 1.5, 2.0, 0.0, 0.4, 0.0));
  const CriticalPathSection section = build_critical_path(dag, monitor);

  TraceCollector trace;
  trace.set_enabled(true);
  export_critical_path_track(section, trace);
  const std::vector<TraceEvent> events = trace.events();
  ASSERT_FALSE(events.empty());
  std::size_t spans = 0, queue_spans = 0;
  for (const TraceEvent& e : events) {
    if (e.phase == EventPhase::kMeta) continue;
    EXPECT_EQ(e.pid, kCriticalPathPid);
    EXPECT_EQ(e.cat, "critical_path");
    if (e.phase == EventPhase::kSpan) {
      ++spans;
      if (e.name.rfind("queue:", 0) == 0) ++queue_spans;
    }
  }
  EXPECT_EQ(spans, 3u);       // scan_a, join, plus join's queue gap
  EXPECT_EQ(queue_spans, 1u);  // 1.0 -> 1.5 wait before the join

  // Disabled collector: export is a no-op.
  TraceCollector off;
  export_critical_path_track(section, off);
  EXPECT_EQ(off.size(), 0u);
}

}  // namespace
}  // namespace ditto::obs
