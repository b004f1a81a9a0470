// Textual job/cluster specifications — the input format of the
// `dittoctl` command-line tool, so a user can schedule their own DAG
// without writing C++.
//
// Job spec grammar (one directive per line; '#' starts a comment):
//
//   job <name>
//   stage <name> <op> [input=<size>] [output=<size>]
//   edge <src> <dst> [shuffle|gather|broadcast|all-gather] [bytes=<size>]
//
// Sizes accept B, KB, MB, GB, TB (decimal) and KiB, MiB, GiB (binary),
// e.g. `input=24GB`, `bytes=512MiB`.
//
// Cluster spec:  "<servers>x<slots>[@<distribution>]" where the
// distribution is `uniform-<frac>`, `norm-<sigma>`, or `zipf-<s>`,
// e.g. "8x96@zipf-0.9", "4x16".
#pragma once

#include <string>

#include "cluster/cluster.h"
#include "common/status.h"
#include "dag/job_dag.h"

namespace ditto::workload {

/// Parses a job spec. Errors carry the offending line number.
Result<JobDag> parse_job_spec(const std::string& text);

/// Parses a cluster spec like "8x96@zipf-0.9".
Result<cluster::Cluster> parse_cluster_spec(const std::string& text);

/// Parses a byte size like "24GB" or "512MiB".
Result<Bytes> parse_size(const std::string& text);

}  // namespace ditto::workload
