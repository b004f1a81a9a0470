// Critical-path attribution: where the job completion time actually
// went.
//
// After a run, the RuntimeMonitor holds observed spans for every task.
// build_critical_path walks the completed DAG backwards from the
// latest-finishing sink stage, at each hop following the parent whose
// tasks finished last — the chain of stages that actually determined
// the JCT. Each stage on the path is attributed to
//
//   queue      gap between the gating parent finishing and the stage's
//              first task starting (scheduler gate + pool queueing),
//   compute    mean in-function time of the stage's tasks,
//   transport  mean gather + publish time,
//   straggler  the residual of the stage window beyond the mean task
//              (skew, retries, speculative attempts).
//
// A stage pipelined behind its gate is on the path only for its tail
// past the gate; its compute and transport are scaled by the tail's
// share of the stage's observed span, so the four parts of an entry
// never exceed its window.
//
// The section renders into the ExecutionReport ("where the time went")
// and exports as a dedicated track in the Perfetto trace.
#pragma once

#include <string>
#include <vector>

#include "cluster/runtime_monitor.h"
#include "dag/job_dag.h"
#include "obs/trace.h"

namespace ditto::obs {

/// One stage on the observed critical path (source -> sink order).
struct CriticalPathEntry {
  StageId stage = kNoStage;
  std::string name;
  std::size_t tasks = 0;
  /// Earliest and latest observed task times (s, job clock), both
  /// clamped to the gate parent's end: a pipelined stage's window is
  /// only its tail past the gate.
  double start = 0.0;
  double end = 0.0;
  double queue_seconds = 0.0;
  double compute_seconds = 0.0;
  double transport_seconds = 0.0;
  double straggler_seconds = 0.0;

  double window_seconds() const { return end > start ? end - start : 0.0; }
};

struct CriticalPathSection {
  std::vector<CriticalPathEntry> entries;  ///< source -> sink
  double total_seconds = 0.0;  ///< observed JCT (latest end over ALL stages)
  double path_seconds = 0.0;   ///< sum of queue + window along the path
  // Attribution totals along the path.
  double queue_seconds = 0.0;
  double compute_seconds = 0.0;
  double transport_seconds = 0.0;
  double straggler_seconds = 0.0;

  bool empty() const { return entries.empty(); }
};

/// Walks the observed task spans; returns an empty section when the
/// monitor recorded nothing.
CriticalPathSection build_critical_path(const JobDag& dag,
                                        const cluster::RuntimeMonitor& monitor);

/// Perfetto track ("critical path", pid kCriticalPathPid): one span per
/// path stage plus instant markers for the queue gaps.
inline constexpr std::int64_t kCriticalPathPid = -2;
void export_critical_path_track(const CriticalPathSection& section, TraceCollector& trace);

}  // namespace ditto::obs
