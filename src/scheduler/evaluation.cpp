#include "scheduler/evaluation.h"

#include <algorithm>

namespace ditto::scheduler {

namespace {

/// evaluate(); `external` null skips the persistence cost, which the
/// JCT objective does not read.
PlanEvaluation evaluate_impl(const ExecTimePredictor& predictor, const std::vector<int>& dop,
                             const EdgeFlags& grouped, const storage::StorageModel* external) {
  const JobDag& dag = predictor.dag();
  PlanEvaluation ev;
  const std::size_t n = dag.num_stages();
  ev.stage_start.assign(n, 0.0);
  ev.stage_finish.assign(n, 0.0);
  const auto dop_of = [&dop](StageId s) { return s < dop.size() ? dop[s] : 0; };

  for (StageId s : predictor.topology().order()) {
    double start = 0.0;
    for (StageId p : dag.parents(s)) start = std::max(start, ev.stage_finish[p]);
    const double time = predictor.stage_model(s, grouped).eval(dop_of(s));
    ev.stage_start[s] = start;
    ev.stage_finish[s] = start + time;
    ev.jct = std::max(ev.jct, ev.stage_finish[s]);

    // Function memory cost of the stage itself.
    ev.cost.function_gbs += predictor.resource_usage(s, dop_of(s)) * time;
  }

  if (external == nullptr) return ev;
  // Intermediate-data persistence: produced at finish(src), consumed by
  // the end of dst's read step.
  const double store_price = storage::relative_to_memory_price(*external);
  const std::vector<Edge>& edges = dag.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    const double gb = static_cast<double>(e.bytes) / 1e9;
    const double consumed_at =
        ev.stage_start[e.dst] + predictor.read_time(e.dst, dop_of(e.dst), grouped);
    const double residence = std::max(0.0, consumed_at - ev.stage_finish[e.src]) +
                             predictor.edge_write_time(static_cast<int>(i), dop_of(e.src));
    if (grouped[i]) {
      ev.cost.shm_gbs += kShmGbSecondPrice * gb * residence;
    } else {
      ev.cost.storage_gbs += store_price * gb * residence;
    }
  }
  return ev;
}

}  // namespace

PlanEvaluation evaluate(const ExecTimePredictor& predictor, const std::vector<int>& dop,
                        const EdgeFlags& grouped, const storage::StorageModel& external) {
  return evaluate_impl(predictor, dop, grouped, &external);
}

double objective_value(const ExecTimePredictor& predictor, const std::vector<int>& dop,
                       const EdgeFlags& grouped, Objective objective,
                       const storage::StorageModel& external) {
  if (objective == Objective::kJct) return evaluate_impl(predictor, dop, grouped, nullptr).jct;
  return evaluate_impl(predictor, dop, grouped, &external).cost.total();
}

PlanEvaluation evaluate_plan(const ExecTimePredictor& predictor,
                             const cluster::PlacementPlan& plan,
                             const storage::StorageModel& external) {
  return evaluate(predictor, plan.dop, predictor.topology().flags_of(plan.zero_copy_edges),
                  external);
}

}  // namespace ditto::scheduler
