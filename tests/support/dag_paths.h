// Shape queries over a JobDag that tests use to check generated DAGs:
// stage depths and bounded source-to-sink path enumeration.
#pragma once

#include <cstddef>
#include <vector>

#include "dag/dag_algorithms.h"

namespace ditto {

/// Depth of each stage: the number of edges on the longest path from the
/// stage down to any sink. Sinks (final stages) have depth 0.
std::vector<int> stage_depths(const JobDag& dag);

/// Maximum stage depth in the DAG.
int max_depth(const JobDag& dag);

/// All source-to-sink paths, up to `max_paths` (guards exponential DAGs).
std::vector<std::vector<StageId>> enumerate_paths(const JobDag& dag,
                                                  std::size_t max_paths = 1024);

}  // namespace ditto
