#include "scheduler/ditto_scheduler.h"

#include "scheduler/baselines.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ditto::scheduler {

namespace {

/// What every trial of one schedule() call is computed and checked
/// against.
struct Search {
  const ExecTimePredictor& predictor;
  const std::vector<Merge>& merges;  ///< merge_order(dag), for every DoP computation
  const PlacementChecker& checker;
  Objective objective;
  const storage::StorageModel& external;
  const std::vector<int>& free_slots;
  int total_slots;

  Result<DopResult> dops(const EdgeFlags& grouped) const {
    return optimal_dops(predictor.dag(), merges, predictor.stage_models(grouped), objective,
                        total_slots);
  }
  bool fits(const std::vector<int>& dop, const std::vector<EdgeRef>& grouped) const {
    return checker.fits(dop, grouped, free_slots);
  }
  double value(const std::vector<int>& dop, const EdgeFlags& grouped) const {
    return objective_value(predictor, dop, grouped, objective, external);
  }
};

/// Grouped edges in the order they were grouped (the plan's
/// zero_copy_edges), and the same set as flags.
struct Grouping {
  const DagTopology* topology;
  std::vector<EdgeRef> edges;
  EdgeFlags flags;

  explicit Grouping(const DagTopology& t) : topology(&t), flags(t.flags_of({})) {}
  void push(const EdgeRef& e) {
    edges.push_back(e);
    flags[topology->edge_index(e.first, e.second)] = 1;
  }
  void pop() {
    flags[topology->edge_index(edges.back().first, edges.back().second)] = 0;
    edges.pop_back();
  }
};

/// A searched configuration; only the winner is placed.
struct Candidate {
  std::vector<int> dop;
  std::vector<EdgeRef> grouped;
  double value = 0.0;
};

/// Figure-2 fallback: when a stage group's combined DoP exceeds every
/// server, a LOWER DoP with co-location can still beat a higher DoP
/// with remote shuffling (paper §2.2). Scale each oversized group's
/// member DoPs down so the group fits the largest free server; the
/// objective guard in the main loop decides whether the trade is
/// worth it.
std::vector<int> shrink_groups_to_fit(const JobDag& dag, std::vector<int> dop,
                                      const std::vector<EdgeRef>& grouped,
                                      const std::vector<int>& free_slots) {
  if (free_slots.empty()) return dop;
  const int cap = *std::max_element(free_slots.begin(), free_slots.end());

  DisjointSets sets(dag.num_stages());
  for (const EdgeRef& e : grouped) sets.unite(e.first, e.second);
  std::vector<std::vector<StageId>> members(dag.num_stages());
  for (StageId s = 0; s < dag.num_stages(); ++s) members[sets.find(s)].push_back(s);

  for (const auto& group : members) {
    if (group.size() < 2) continue;
    int need = 0;
    for (StageId s : group) need += dop[s];
    if (need <= cap) continue;
    // Proportional shrink, floor at 1.
    const double scale = static_cast<double>(cap) / static_cast<double>(need);
    int now = 0;
    for (StageId s : group) {
      dop[s] = std::max(1, static_cast<int>(std::floor(dop[s] * scale)));
      now += dop[s];
    }
    // The min-1 floor can leave the group just over cap; shave largest.
    while (now > cap) {
      StageId biggest = group[0];
      for (StageId s : group) {
        if (dop[s] > dop[biggest]) biggest = s;
      }
      if (dop[biggest] <= 1) break;
      --dop[biggest];
      --now;
    }
  }
  return dop;
}

/// Algorithm 3 (joint iterative optimization), optionally with the
/// Figure-2 shrink fallback when a trial group fits no server.
Result<Candidate> run_joint(const Search& search, const DittoOptions& options, bool shrink,
                            const char* variant, std::vector<TraceStep>& trace) {
  const JobDag& dag = search.predictor.dag();
  const GreedyGrouper grouper(search.predictor, search.objective);

  // Initialization: every stage its own group; optimal ungrouped DoPs.
  Grouping grouped(search.predictor.topology());
  std::vector<EdgeRef> ungrouped;
  for (const Edge& e : dag.edges()) ungrouped.emplace_back(e.src, e.dst);

  DITTO_ASSIGN_OR_RETURN(DopResult dops, search.dops(grouped.flags));
  if (!search.fits(dops.dop, grouped.edges)) {
    return Status::resource_exhausted("the ungrouped configuration does not fit");
  }
  double best_value = search.value(dops.dop, grouped.flags);

  int iterations = 0;
  while (!ungrouped.empty() && iterations++ < options.max_iterations) {
    const std::vector<EdgeRef> order =
        grouper.traversal_order(ungrouped, dops.dop, grouped.edges);
    bool progressed = false;
    for (const EdgeRef& e : order) {
      // Try grouping e: its shuffle becomes zero-copy.
      grouped.push(e);
      TraceStep step;
      step.src = e.first;
      step.dst = e.second;
      step.variant = variant;
      Result<DopResult> trial_dops = search.dops(grouped.flags);
      if (trial_dops.ok()) {
        bool placed = search.fits(trial_dops.value().dop, grouped.edges);
        if (!placed && shrink) {
          // Figure-2 trade: lower the group's DoP to make co-location
          // possible; the objective guard below rejects bad trades.
          trial_dops.value().dop = shrink_groups_to_fit(dag, trial_dops.value().dop,
                                                        grouped.edges, search.free_slots);
          placed = search.fits(trial_dops.value().dop, grouped.edges);
          step.used_shrink = placed;
        }
        if (placed) {
          const double trial_value = search.value(trial_dops.value().dop, grouped.flags);
          step.objective = trial_value;
          if (!options.enforce_monotone || trial_value <= best_value + 1e-12) {
            // Keep the group.
            dops = trial_dops.value();
            best_value = trial_value;
            ungrouped.erase(std::find(ungrouped.begin(), ungrouped.end(), e));
            progressed = true;
            step.accepted = true;
            if (options.record_trace) trace.push_back(step);
            break;
          }
        }
      }
      if (options.record_trace) trace.push_back(step);
      // Backtrack: abandon grouping this edge for now.
      grouped.pop();
    }
    if (!progressed) break;  // no edge in E_u could be grouped
  }
  return Candidate{std::move(dops.dop), std::move(grouped.edges), best_value};
}

/// Group-first variant: decide groups under a neutral (data-
/// proportional) DoP configuration first, then hand the fixed groups
/// to DoP ratio computing and shrink them to fit. Escapes the local
/// minimum where the joint loop's own large tail DoPs block the big
/// tail group that a smaller configuration could co-locate.
Result<Candidate> run_group_first(const Search& search) {
  const JobDag& dag = search.predictor.dag();
  const GreedyGrouper grouper(search.predictor, search.objective);

  const std::vector<int> seed_dops = data_proportional_dops(dag, search.total_slots);
  Grouping grouped(search.predictor.topology());
  std::vector<EdgeRef> candidates;
  for (const Edge& e : dag.edges()) candidates.emplace_back(e.src, e.dst);
  const std::vector<EdgeRef> order = grouper.traversal_order(candidates, seed_dops, {});
  for (const EdgeRef& e : order) {
    grouped.push(e);
    if (!search.fits(seed_dops, grouped.edges)) grouped.pop();
  }

  // Re-optimize parallelism for the chosen groups, shrinking oversized
  // groups back into the largest server if the re-optimization grew them.
  DITTO_ASSIGN_OR_RETURN(DopResult dops, search.dops(grouped.flags));
  std::vector<int> dop =
      shrink_groups_to_fit(dag, dops.dop, grouped.edges, search.free_slots);
  if (!search.fits(dop, grouped.edges)) {
    // Fall back to the seed configuration that was known to place.
    if (!search.fits(seed_dops, grouped.edges)) {
      return Status::resource_exhausted("no grouped configuration fits");
    }
    dop = seed_dops;
  }
  const double value = search.value(dop, grouped.flags);
  return Candidate{std::move(dop), std::move(grouped.edges), value};
}

}  // namespace

Result<SchedulePlan> DittoScheduler::schedule(const JobDag& dag,
                                              const cluster::Cluster& cluster,
                                              Objective objective,
                                              const storage::StorageModel& external) {
  Stopwatch clock;
  obs::ScopedSpan sched_span("scheduler", "schedule");
  sched_span.arg("job", dag.name());
  sched_span.arg("objective", objective_name(objective));
  DITTO_RETURN_IF_ERROR(dag.validate());

  const std::vector<int> free_slots = cluster.free_slot_snapshot();
  const ExecTimePredictor predictor(dag);
  const std::vector<Merge> merges = merge_order(dag);
  const PlacementChecker checker(dag);
  const Search search{predictor,  merges,     checker,
                      objective,  external,   free_slots,
                      std::accumulate(free_slots.begin(), free_slots.end(), 0)};

  // Multi-start greedy: the joint loop (Algorithm 3) with and without
  // the Figure-2 shrink fallback, plus the group-first variant. All
  // are microsecond-scale; keep the best plan by predicted objective.
  std::vector<Candidate> candidates;
  const auto consider = [&](Result<Candidate> candidate) {
    if (candidate.ok()) candidates.push_back(std::move(candidate).value());
  };
  trace_.clear();
  consider(run_joint(search, options_, /*shrink=*/false, "algorithm-3", trace_));
  if (options_.shrink_oversized_groups) {
    consider(run_joint(search, options_, /*shrink=*/true, "figure-2-shrink", trace_));
    consider(run_group_first(search));
  }
  if (candidates.empty()) {
    return Status::resource_exhausted("no feasible plan for the available resources");
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].value < candidates[best].value) best = i;
  }

  // Place and evaluate the winner only; NIMBLE launch times are its
  // predicted stage starts.
  const Candidate& winner = candidates[best];
  SchedulePlan plan;
  DITTO_ASSIGN_OR_RETURN(plan.placement, checker.place(winner.dop, winner.grouped, free_slots));
  plan.predicted =
      evaluate(predictor, winner.dop, predictor.topology().flags_of(winner.grouped), external);
  plan.placement.launch_time = plan.predicted.stage_start;
  plan.scheduling_seconds = clock.elapsed_seconds();
  plan.scheduler_name = name();

  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    const obs::MetricLabels labels{{"scheduler", name()}};
    mx.counter("scheduler.plans_total", labels).add();
    mx.histogram("scheduler.scheduling_seconds", 0.0, 1.0, 50, labels)
        .observe(plan.scheduling_seconds);
    mx.gauge("scheduler.predicted_jct", labels).set(plan.predicted.jct);
    mx.gauge("scheduler.predicted_cost", labels).set(plan.predicted.cost.total());
    mx.gauge("scheduler.slots_used", labels).set(plan.placement.total_slots_used());
    mx.counter("scheduler.zero_copy_edges", labels)
        .add(plan.placement.zero_copy_edges.size());
  }
  obs::TraceCollector& tc = obs::TraceCollector::global();
  if (tc.enabled()) {
    std::string dops;
    for (StageId s = 0; s < dag.num_stages(); ++s) {
      if (s) dops += ",";
      dops += std::to_string(plan.placement.dop_of(s));
    }
    obs::TraceArgs args;
    args.emplace_back("scheduler", name());
    args.emplace_back("predicted_jct", std::to_string(plan.predicted.jct));
    args.emplace_back("predicted_cost", std::to_string(plan.predicted.cost.total()));
    args.emplace_back("candidates", std::to_string(candidates.size()));
    args.emplace_back("zero_copy_edges",
                      std::to_string(plan.placement.zero_copy_edges.size()));
    args.emplace_back("dops", std::move(dops));
    tc.instant("scheduler", "plan-chosen", tc.now_us(), 0, 0, std::move(args));
  }
  return plan;
}

}  // namespace ditto::scheduler
