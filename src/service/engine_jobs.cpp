#include "service/engine_jobs.h"

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "dag/dag_algorithms.h"
#include "workload/physics.h"

namespace ditto::service {

std::string engine_query_signature(std::string_view query,
                                   const workload::EngineQuerySpec& spec) {
  std::ostringstream os;
  os << query << "|rows=" << spec.fact_rows << "|orders=" << spec.num_orders
     << "|seed=" << spec.seed;
  return os.str();
}

Result<EngineQueryJob> make_engine_query_job(std::string_view query,
                                             const workload::EngineQuerySpec& spec,
                                             const storage::StorageModel& external) {
  DITTO_ASSIGN_OR_RETURN(const workload::EngineQuery q, workload::find_engine_query(query));
  auto job = std::make_shared<workload::EngineJob>(q.build(spec));
  const workload::EngineAnswer ref = q.reference(*job, spec);

  EngineQueryJob out;
  out.ref_rows = ref.rows;
  out.ref_value = ref.value;
  out.sink = job->sink;
  JobDag model = job->dag;
  workload::PhysicsParams physics;
  physics.store = external;
  workload::apply_physics(model, physics);
  out.submission.cache_id.plan_fingerprint = structural_fingerprint(model);
  out.submission.cache_id.input_signature = engine_query_signature(query, spec);
  out.submission.model_dag = std::move(model);
  out.submission.dag = job->dag;
  out.submission.bindings = job->bindings;
  out.submission.keepalive = std::move(job);
  return out;
}

}  // namespace ditto::service
