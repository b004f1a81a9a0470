// Pipelined execution annotations (paper §4.5 "Pipelined execution").
//
// NIMBLE's pipelining mechanism overlaps the steps of adjacent stages:
// a downstream task starts reading while the upstream task is still
// writing. Ditto "adjusts the profile by reading the pipelining
// annotation and modifies the time model accordingly: the execution
// time of the downstream stage only involves the non-overlapping steps
// while ignoring the overlapping steps."
//
// We model this by marking the downstream read step of annotated edges
// as `pipelined`; the predictor and the simulator both skip pipelined
// steps when computing stage time (the overlap hides them behind the
// upstream write).
#pragma once

#include <utility>
#include <vector>

#include "dag/job_dag.h"

namespace ditto::workload {

/// Marks the read step of `dst` that pulls from `src` as pipelined.
/// Returns false if no such step exists.
bool pipeline_edge(JobDag& dag, StageId src, StageId dst);

/// Pipelines every shuffle edge of the DAG (gather/broadcast edges are
/// left alone: their consumers need the complete input). Returns the
/// number of edges annotated.
int pipeline_all_shuffles(JobDag& dag);

/// Edges currently annotated as pipelined: what a caller passes as
/// exec::EngineOptions::stream_edges, so the engine streams exactly
/// the edges the model credits.
std::vector<std::pair<StageId, StageId>> pipelined_edges(const JobDag& dag);

}  // namespace ditto::workload
