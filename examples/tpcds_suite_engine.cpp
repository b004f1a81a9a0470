// The whole TPC-DS miniature suite (Q1, Q16, Q94, Q95) executed for
// real: Ditto plans each engine-executable query and the MiniEngine
// runs it; every answer's rows and value are checked against the
// query's single-node reference. Exits 1 on any mismatch or failure.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "exec/engine.h"
#include "scheduler/ditto_scheduler.h"
#include "storage/sim_store.h"
#include "workload/engine_queries.h"
#include "workload/physics.h"

using namespace ditto;

namespace {

struct SuiteRow {
  workload::EngineAnswer answer;
  bool matches = false;
  std::size_t zero_copy = 0;
  std::size_t remote = 0;
  double wall_ms = 0.0;
};

Result<SuiteRow> run_query(const workload::EngineQuery& query,
                           const workload::EngineQuerySpec& spec) {
  const workload::EngineJob job = query.build(spec);
  const workload::EngineAnswer ref = query.reference(job, spec);
  JobDag model_dag = job.dag;
  workload::PhysicsParams physics;
  physics.store = storage::redis_model();
  workload::apply_physics(model_dag, physics);

  auto cl = cluster::Cluster::uniform(4, 8);
  scheduler::DittoScheduler sched;
  DITTO_ASSIGN_OR_RETURN(scheduler::SchedulePlan plan,
                         sched.schedule(model_dag, cl, Objective::kJct,
                                        storage::redis_model()));

  auto store = storage::make_instant_store();
  exec::MiniEngine engine(job.dag, plan.placement, *store);
  DITTO_ASSIGN_OR_RETURN(exec::EngineResult result, engine.run(job.bindings));
  SuiteRow row;
  DITTO_ASSIGN_OR_RETURN(row.answer,
                         workload::engine_answer_from_sink(result.sink_outputs.at(job.sink)));
  row.matches = row.answer.rows == ref.rows &&
                std::abs(row.answer.value - ref.value) <= 1e-6 * std::max(1.0, ref.value);
  row.zero_copy = result.stats.exchange.zero_copy_messages;
  row.remote = result.stats.exchange.remote_messages;
  row.wall_ms = result.stats.wall_seconds * 1e3;
  return row;
}

}  // namespace

int main() {
  workload::EngineQuerySpec spec;
  spec.fact_rows = 40000;
  spec.num_orders = 6000;

  std::printf("TPC-DS miniature suite on the MiniEngine (Ditto-planned, 4x8 cluster)\n\n");
  int failures = 0;
  for (const workload::EngineQuery& query : workload::engine_queries()) {
    const auto row = run_query(query, spec);
    if (!row.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", query.name, row.status().to_string().c_str());
      ++failures;
      continue;
    }
    std::printf("%-5s %8lld rows  value %14.2f  %-9s  %3zu shm / %3zu store msgs  %6.1f ms\n",
                query.name, static_cast<long long>(row->answer.rows), row->answer.value,
                row->matches ? "VERIFIED" : "MISMATCH", row->zero_copy, row->remote,
                row->wall_ms);
    if (!row->matches) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
