#include "scheduler/explain.h"

#include <map>
#include <sstream>

#include "common/units.h"

namespace ditto::scheduler {

std::string explain_plan(const JobDag& dag, const SchedulePlan& plan) {
  std::ostringstream os;
  os << "Plan for '" << dag.name() << "' by " << plan.scheduler_name << " ("
     << seconds_to_string(plan.scheduling_seconds) << " to schedule)\n";

  os << "  stages:\n";
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    const Stage& stage = dag.stage(s);
    os << "    " << stage.name() << ": DoP " << plan.placement.dop_of(s);
    // Summarize task placement as server: count pairs.
    std::map<ServerId, int> per_server;
    if (s < plan.placement.task_server.size()) {
      for (ServerId v : plan.placement.task_server[s]) ++per_server[v];
    }
    os << ", servers {";
    bool first = true;
    for (const auto& [srv, n] : per_server) {
      if (!first) os << ", ";
      first = false;
      if (srv == kNoServer) {
        os << "unassigned x" << n;
      } else {
        os << srv << " x" << n;
      }
    }
    os << "}";
    if (s < plan.placement.launch_time.size()) {
      os << ", launch +" << seconds_to_string(plan.placement.launch_time[s]);
    }
    os << "\n";
  }

  os << "  zero-copy groups:";
  if (plan.placement.zero_copy_edges.empty()) {
    os << " none (every shuffle via external storage)";
  }
  for (const auto& [a, b] : plan.placement.zero_copy_edges) {
    os << " " << dag.stage(a).name() << "->" << dag.stage(b).name();
  }
  os << "\n";

  os << "  predicted JCT: " << seconds_to_string(plan.predicted.jct) << "\n";
  os << "  predicted cost: " << plan.predicted.cost.total() << " GB-s (functions "
     << plan.predicted.cost.function_gbs << ", shm " << plan.predicted.cost.shm_gbs
     << ", storage " << plan.predicted.cost.storage_gbs << ")\n";
  return os.str();
}

}  // namespace ditto::scheduler
