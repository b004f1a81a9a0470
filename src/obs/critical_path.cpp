#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>

namespace ditto::obs {

namespace {

struct StageSpan {
  bool observed = false;
  cluster::StageSummary summary;
  double mean_compute = 0.0;
  double mean_transport = 0.0;
};

StageSpan stage_span(const cluster::RuntimeMonitor& monitor, StageId s) {
  StageSpan out;
  const std::vector<cluster::TaskRecord> records = monitor.records_for_stage(s);
  if (records.empty()) return out;
  out.observed = true;
  out.summary = monitor.stage_summary(s);
  double compute = 0.0, transport = 0.0;
  for (const cluster::TaskRecord& r : records) {
    compute += r.compute_time;
    transport += r.read_time + r.write_time;
  }
  out.mean_compute = compute / static_cast<double>(records.size());
  out.mean_transport = transport / static_cast<double>(records.size());
  return out;
}

}  // namespace

CriticalPathSection build_critical_path(const JobDag& dag,
                                        const cluster::RuntimeMonitor& monitor) {
  CriticalPathSection section;
  if (monitor.num_records() == 0 || dag.num_stages() == 0) return section;

  std::vector<StageSpan> spans(dag.num_stages());
  for (StageId s = 0; s < dag.num_stages(); ++s) spans[s] = stage_span(monitor, s);

  // The path's sink: the observed stage that finished last overall.
  StageId cursor = kNoStage;
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    if (!spans[s].observed) continue;
    if (cursor == kNoStage || spans[s].summary.stage_end > spans[cursor].summary.stage_end) {
      cursor = s;
    }
  }
  if (cursor == kNoStage) return section;
  section.total_seconds = spans[cursor].summary.stage_end;

  // Walk back through the latest-finishing observed parent at each hop.
  std::vector<StageId> chain;
  while (cursor != kNoStage) {
    chain.push_back(cursor);
    StageId gate = kNoStage;
    for (StageId p : dag.parents(cursor)) {
      if (!spans[p].observed) continue;
      if (gate == kNoStage || spans[p].summary.stage_end > spans[gate].summary.stage_end) {
        gate = p;
      }
    }
    cursor = gate;
  }

  // Source -> sink. A stage pipelined behind its gate starts (and may
  // end) before the gate ends; only its tail past the gate is on the
  // path — the rule EngineStats::stage_seconds uses — so the windows
  // tile the path instead of overlapping.
  double gate_end = 0.0;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const StageSpan& span = spans[*it];
    CriticalPathEntry e;
    e.stage = *it;
    e.name = dag.stage(*it).name();
    e.tasks = span.summary.tasks;
    e.queue_seconds = std::max(0.0, span.summary.stage_start - gate_end);
    e.start = std::max(span.summary.stage_start, gate_end);
    e.end = std::max(span.summary.stage_end, e.start);
    // The same rule for the attribution: a clamped stage is charged the
    // tail's share of its task means, so compute + transport + straggler
    // stay within the window.
    const double full = span.summary.stage_end - span.summary.stage_start;
    const double share =
        e.start > span.summary.stage_start ? (full > 0.0 ? e.window_seconds() / full : 0.0) : 1.0;
    e.compute_seconds = span.mean_compute * share;
    e.transport_seconds = span.mean_transport * share;
    e.straggler_seconds =
        std::max(0.0, e.window_seconds() - e.compute_seconds - e.transport_seconds);
    gate_end = e.end;
    section.entries.push_back(std::move(e));
  }

  for (const CriticalPathEntry& e : section.entries) {
    section.path_seconds += e.queue_seconds + e.window_seconds();
    section.queue_seconds += e.queue_seconds;
    section.compute_seconds += e.compute_seconds;
    section.transport_seconds += e.transport_seconds;
    section.straggler_seconds += e.straggler_seconds;
  }
  return section;
}

void export_critical_path_track(const CriticalPathSection& section, TraceCollector& trace) {
  if (section.empty() || !trace.enabled()) return;
  trace.process_name(kCriticalPathPid, "critical path");
  auto us = [](double seconds) {
    return static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e6);
  };
  for (const CriticalPathEntry& e : section.entries) {
    if (e.queue_seconds > 0.0) {
      trace.span("critical_path", "queue: " + e.name, us(e.start - e.queue_seconds),
                 us(e.queue_seconds), kCriticalPathPid, 0);
    }
    TraceArgs args;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", e.compute_seconds);
    args.emplace_back("compute_s", buf);
    std::snprintf(buf, sizeof(buf), "%.6f", e.transport_seconds);
    args.emplace_back("transport_s", buf);
    std::snprintf(buf, sizeof(buf), "%.6f", e.straggler_seconds);
    args.emplace_back("straggler_s", buf);
    trace.span("critical_path", e.name, us(e.start), us(e.window_seconds()),
               kCriticalPathPid, 0, std::move(args));
  }
}

}  // namespace ditto::obs
