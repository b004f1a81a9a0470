// Human-readable explanation of a schedule plan — what the control
// plane would log when dispatching execution requests (paper §5:
// execution requests carry the task set, placement, and the
// upstream/downstream information driving the communication API).
#pragma once

#include <string>

#include "dag/job_dag.h"
#include "scheduler/scheduler.h"

namespace ditto::scheduler {

/// Multi-line report: per-stage DoP / servers / launch time, the
/// zero-copy stage groups, and the predicted JCT/cost breakdown.
std::string explain_plan(const JobDag& dag, const SchedulePlan& plan);

}  // namespace ditto::scheduler
