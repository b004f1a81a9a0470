#include "scheduler/baselines.h"

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "common/stopwatch.h"

namespace ditto::scheduler {

namespace {

/// Scatter each stage's tasks over random servers with capacity
/// (NIMBLE: "randomly places tasks on function servers").
Result<cluster::PlacementPlan> random_placement(const JobDag& dag, const std::vector<int>& dop,
                                                const std::vector<int>& free_slots,
                                                std::uint64_t seed) {
  cluster::PlacementPlan plan;
  plan.dop = dop;
  plan.task_server.assign(dag.num_stages(), {});
  std::vector<int> remaining = free_slots;
  Rng rng(seed);
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    plan.task_server[s].assign(dop[s], kNoServer);
    for (int t = 0; t < dop[s]; ++t) {
      std::vector<double> weights(remaining.size());
      double total = 0.0;
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        weights[i] = static_cast<double>(std::max(0, remaining[i]));
        total += weights[i];
      }
      if (total <= 0.0) {
        return Status::resource_exhausted("cluster out of slots in random placement");
      }
      const std::size_t srv = rng.weighted_index(weights);
      --remaining[srv];
      plan.task_server[s][t] = static_cast<ServerId>(srv);
    }
  }
  return plan;
}

/// Scatter deterministically (used by the DoP-only ablation).
Result<cluster::PlacementPlan> scatter_placement(const JobDag& dag, const std::vector<int>& dop,
                                                 const std::vector<int>& free_slots) {
  const PlacementChecker checker(dag);
  return checker.place(dop, /*grouped=*/{}, free_slots);
}

SchedulePlan finish_plan(const ExecTimePredictor& predictor, cluster::PlacementPlan placement,
                         const storage::StorageModel& external, const Stopwatch& clock,
                         const char* name) {
  SchedulePlan plan;
  plan.placement = std::move(placement);
  plan.predicted = evaluate_plan(predictor, plan.placement, external);
  plan.placement.launch_time = plan.predicted.stage_start;
  plan.scheduling_seconds = clock.elapsed_seconds();
  plan.scheduler_name = name;
  return plan;
}

}  // namespace

std::vector<int> data_proportional_dops(const JobDag& dag, int total_slots) {
  const std::size_t n = dag.num_stages();
  std::vector<double> weight(n);
  double total = 0.0;
  for (StageId s = 0; s < n; ++s) {
    // Input size correlates with resource demand (paper §2.2); stages
    // with no recorded input still need one task.
    weight[s] = static_cast<double>(std::max<Bytes>(dag.stage(s).input_bytes(), 1));
    total += weight[s];
  }
  std::vector<double> continuous(n);
  for (StageId s = 0; s < n; ++s) {
    continuous[s] = weight[s] / total * static_cast<double>(total_slots);
  }
  return round_dops(continuous, total_slots);
}

Result<SchedulePlan> NimbleScheduler::schedule(const JobDag& dag,
                                               const cluster::Cluster& cluster,
                                               Objective /*objective*/,
                                               const storage::StorageModel& external) {
  Stopwatch clock;
  DITTO_RETURN_IF_ERROR(dag.validate());
  const std::vector<int> free_slots = cluster.free_slot_snapshot();
  const int total_slots = std::accumulate(free_slots.begin(), free_slots.end(), 0);
  if (total_slots < static_cast<int>(dag.num_stages())) {
    return Status::resource_exhausted("fewer slots than stages");
  }
  const std::vector<int> dops = data_proportional_dops(dag, total_slots);
  DITTO_ASSIGN_OR_RETURN(cluster::PlacementPlan placement,
                         random_placement(dag, dops, free_slots, seed_));
  const ExecTimePredictor predictor(dag);
  return finish_plan(predictor, std::move(placement), external, clock, name());
}

Result<SchedulePlan> FixedDopScheduler::schedule(const JobDag& dag,
                                                 const cluster::Cluster& cluster,
                                                 Objective /*objective*/,
                                                 const storage::StorageModel& external) {
  Stopwatch clock;
  DITTO_RETURN_IF_ERROR(dag.validate());
  const std::vector<int> free_slots = cluster.free_slot_snapshot();
  const int total_slots = std::accumulate(free_slots.begin(), free_slots.end(), 0);
  const int n = static_cast<int>(dag.num_stages());
  int dop = fixed_dop_;
  if (dop <= 0) dop = std::max(1, total_slots / std::max(1, n));
  if (dop * n > total_slots) {
    return Status::resource_exhausted("fixed DoP does not fit available slots");
  }
  const std::vector<int> dops(dag.num_stages(), dop);
  DITTO_ASSIGN_OR_RETURN(cluster::PlacementPlan placement,
                         scatter_placement(dag, dops, free_slots));
  const ExecTimePredictor predictor(dag);
  return finish_plan(predictor, std::move(placement), external, clock, name());
}

Result<SchedulePlan> NimblePlusGroupScheduler::schedule(const JobDag& dag,
                                                        const cluster::Cluster& cluster,
                                                        Objective objective,
                                                        const storage::StorageModel& external) {
  Stopwatch clock;
  DITTO_RETURN_IF_ERROR(dag.validate());
  const std::vector<int> free_slots = cluster.free_slot_snapshot();
  const int total_slots = std::accumulate(free_slots.begin(), free_slots.end(), 0);
  if (total_slots < static_cast<int>(dag.num_stages())) {
    return Status::resource_exhausted("fewer slots than stages");
  }
  const std::vector<int> dops = data_proportional_dops(dag, total_slots);

  // Greedy grouping under NIMBLE's (fixed) parallelism configuration:
  // Algorithm 2 exactly — traverse edges in greedy order, keep a group
  // whenever the placement check passes.
  const ExecTimePredictor predictor(dag);
  const GreedyGrouper grouper(predictor, objective);
  const PlacementChecker checker(dag);

  std::vector<EdgeRef> grouped;
  std::vector<EdgeRef> candidates;
  for (const Edge& e : dag.edges()) candidates.emplace_back(e.src, e.dst);
  const std::vector<EdgeRef> order = grouper.traversal_order(candidates, dops, grouped);
  for (const EdgeRef& e : order) {
    grouped.push_back(e);
    if (!checker.fits(dops, grouped, free_slots)) grouped.pop_back();
  }
  DITTO_ASSIGN_OR_RETURN(cluster::PlacementPlan placement,
                         checker.place(dops, grouped, free_slots));
  return finish_plan(predictor, std::move(placement), external, clock, name());
}

Result<SchedulePlan> NimblePlusDopScheduler::schedule(const JobDag& dag,
                                                      const cluster::Cluster& cluster,
                                                      Objective objective,
                                                      const storage::StorageModel& external) {
  Stopwatch clock;
  DITTO_RETURN_IF_ERROR(dag.validate());
  const std::vector<int> free_slots = cluster.free_slot_snapshot();
  const int total_slots = std::accumulate(free_slots.begin(), free_slots.end(), 0);
  const ExecTimePredictor predictor(dag);
  DITTO_ASSIGN_OR_RETURN(DopResult dops,
                         optimal_dops(dag, merge_order(dag),
                                      predictor.stage_models(predictor.topology().flags_of({})),
                                      objective, total_slots));
  DITTO_ASSIGN_OR_RETURN(cluster::PlacementPlan placement,
                         scatter_placement(dag, dops.dop, free_slots));
  return finish_plan(predictor, std::move(placement), external, clock, name());
}

}  // namespace ditto::scheduler
