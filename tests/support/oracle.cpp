#include "support/oracle.h"

#include <numeric>

#include "common/stopwatch.h"
#include "scheduler/grouping.h"
#include "scheduler/placement_check.h"

namespace ditto::scheduler {

namespace {

/// Number of compositions of C into n positive parts: C-1 choose n-1.
std::uint64_t composition_count(int total, std::size_t parts) {
  // Compute C(total-1, parts-1) with overflow saturation.
  std::uint64_t result = 1;
  const std::uint64_t k = parts - 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t num = static_cast<std::uint64_t>(total - 1) - k + i;
    if (result > UINT64_MAX / (num + 1)) return UINT64_MAX;
    result = result * num / i;
  }
  return result;
}

/// Visits every vector d with d_i >= 1 and sum(d) <= total.
template <typename Fn>
void for_each_composition(int total, std::size_t parts, std::vector<int>& d, std::size_t at,
                          int used, const Fn& fn) {
  if (at + 1 == parts) {
    // Last part takes anything from 1 to the remainder (allocating
    // fewer than all slots is allowed and sometimes optimal for cost).
    for (int v = 1; v <= total - used; ++v) {
      d[at] = v;
      fn(d);
    }
    return;
  }
  const int remaining_min = static_cast<int>(parts - at - 1);  // 1 per later part
  for (int v = 1; v <= total - used - remaining_min; ++v) {
    d[at] = v;
    for_each_composition(total, parts, d, at + 1, used + v, fn);
  }
}

}  // namespace

Result<SchedulePlan> OracleScheduler::schedule(const JobDag& dag,
                                               const cluster::Cluster& cluster,
                                               Objective objective,
                                               const storage::StorageModel& external) {
  Stopwatch clock;
  DITTO_RETURN_IF_ERROR(dag.validate());
  const std::size_t n = dag.num_stages();
  const std::size_t m = dag.num_edges();
  const std::vector<int> free_slots = cluster.free_slot_snapshot();
  const int total = std::accumulate(free_slots.begin(), free_slots.end(), 0);

  if (n == 0) return Status::invalid_argument("empty DAG");
  if (n > limits_.max_stages || m > limits_.max_edges || total > limits_.max_total_slots) {
    return Status::resource_exhausted("instance too large for exhaustive search");
  }
  const std::uint64_t configs = composition_count(total, n) << m;
  if (configs > limits_.max_configurations) {
    return Status::resource_exhausted("search space exceeds the configured cap");
  }

  const ExecTimePredictor predictor(dag);
  const PlacementChecker checker(dag);
  std::vector<EdgeRef> all_edges;
  for (const Edge& e : dag.edges()) all_edges.emplace_back(e.src, e.dst);

  bool found = false;
  double best_value = 0.0;
  cluster::PlacementPlan best_plan;

  for (std::uint64_t mask = 0; mask < (1ull << m); ++mask) {
    std::vector<EdgeRef> grouped;
    for (std::size_t e = 0; e < m; ++e) {
      if (mask & (1ull << e)) grouped.push_back(all_edges[e]);
    }
    std::vector<int> d(n, 1);
    for_each_composition(total, n, d, 0, 0, [&](const std::vector<int>& dop) {
      const auto plan = checker.place(dop, grouped, free_slots);
      if (!plan.ok()) return;
      const auto ev = evaluate_plan(predictor, plan.value(), external);
      const double value = objective == Objective::kJct ? ev.jct : ev.cost.total();
      if (!found || value < best_value) {
        found = true;
        best_value = value;
        best_plan = plan.value();
      }
    });
  }
  if (!found) return Status::resource_exhausted("no feasible configuration");

  SchedulePlan plan;
  plan.placement = std::move(best_plan);
  plan.predicted = evaluate_plan(predictor, plan.placement, external);
  plan.placement.launch_time = plan.predicted.stage_start;
  plan.scheduling_seconds = clock.elapsed_seconds();
  plan.scheduler_name = name();
  return plan;
}

}  // namespace ditto::scheduler
