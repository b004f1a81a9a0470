// Engine-executable miniatures of the paper's four TPC-DS queries (Q1,
// Q16, Q94, Q95): real stage DAGs bound to real operators over
// generated data, each with a single-node reference implementation for
// verification. engine_queries() is the catalogue every caller that
// runs "the four queries" iterates over.
//
// Semantics (faithful miniatures of the TPC-DS originals):
//   Q1  — customers whose total store returns exceed 1.2x the average
//         customer total of their store (returns + date_dim + customer).
//   Q16 — catalog orders over a price threshold, shipped via allowed
//         sites, appearing with >= 2 distinct warehouses in a second
//         scan (the EXISTS clause), with no catalog return (NOT
//         EXISTS); reports distinct orders and their revenue.
//   Q94 — the web analogue of Q16: the dimension filter runs on the
//         date dimension instead of sites.
//   Q95 — web orders over the price threshold shipped from two
//         warehouses, with a return, on an allowed date, excluding some
//         sites; nine stages in the Fig. 13 shape (map1, groupby, map2,
//         reduce1, map3, join1, map4, join2, reduce2), with streaming
//         probe sides on its three joins.
//
// Every sink writes one (rows:int64, value:double) summary row; every
// builder annotates its DAG with the data volumes the scheduler plans
// against.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dag/job_dag.h"
#include "exec/engine.h"

namespace ditto::workload {

/// The data a query reads; every other knob (domains, filters) is a
/// constant of the miniature.
struct EngineQuerySpec {
  std::size_t fact_rows = 50000;
  std::int64_t num_orders = 8000;      ///< doubles as the customer domain (Q1)
  std::uint64_t seed = 99;
};

/// An executable job: DAG (volume-annotated) + per-stage bindings + the
/// source tables the bindings capture (kept alive here).
struct EngineJob {
  JobDag dag;
  std::map<StageId, exec::StageBinding> bindings;
  std::map<std::string, std::shared_ptr<const exec::Table>> sources;
  StageId sink = kNoStage;
};

/// All engine answers reduce to (row count, accumulated value).
struct EngineAnswer {
  std::int64_t rows = 0;
  double value = 0.0;
};

EngineJob build_q1_engine_job(const EngineQuerySpec& spec);
EngineJob build_q16_engine_job(const EngineQuerySpec& spec);
EngineJob build_q94_engine_job(const EngineQuerySpec& spec);
EngineJob build_q95_engine_job(const EngineQuerySpec& spec);

EngineAnswer q1_engine_reference(const EngineJob& job, const EngineQuerySpec& spec);
EngineAnswer q16_engine_reference(const EngineJob& job, const EngineQuerySpec& spec);
EngineAnswer q94_engine_reference(const EngineJob& job, const EngineQuerySpec& spec);
EngineAnswer q95_engine_reference(const EngineJob& job, const EngineQuerySpec& spec);

/// Reads the (rows, value) answer from the sink stage's output table.
Result<EngineAnswer> engine_answer_from_sink(const exec::Table& sink_output);

/// One catalogue entry: a query's name, builder and reference.
struct EngineQuery {
  const char* name;  ///< "q1", "q16", "q94" or "q95"
  EngineJob (*build)(const EngineQuerySpec&);
  EngineAnswer (*reference)(const EngineJob&, const EngineQuerySpec&);
};

/// The four miniatures, in the paper's order.
const std::vector<EngineQuery>& engine_queries();

/// The entry named `name`, or INVALID_ARGUMENT listing the names.
Result<EngineQuery> find_engine_query(std::string_view name);

}  // namespace ditto::workload
