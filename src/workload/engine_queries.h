// Engine-executable miniatures of the paper's remaining queries (Q1,
// Q16, Q94 — Q95 lives in q95_engine.h): real stage DAGs bound to real
// operators over generated data, each with a single-node reference
// implementation for verification.
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
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "dag/job_dag.h"
#include "exec/engine.h"
#include "exec/operators.h"

namespace ditto::workload {

struct EngineQuerySpec {
  std::size_t fact_rows = 50000;
  std::int64_t num_orders = 8000;      ///< doubles as the customer domain (Q1)
  std::int64_t num_warehouses = 12;    ///< doubles as the store domain (Q1)
  std::int64_t num_dates = 120;
  std::int64_t num_sites = 24;
  double return_fraction = 0.45;
  double price_threshold = 100.0;
  double q1_avg_factor = 1.2;          ///< Q1's "above 1.2x store average"
  std::int64_t dim_attr_allowed = 0;   ///< dimension filter value
  std::uint64_t seed = 99;
};

/// An executable job: DAG + per-stage bindings + the source tables the
/// bindings capture (kept alive here).
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

EngineAnswer q1_engine_reference(const EngineJob& job, const EngineQuerySpec& spec);
EngineAnswer q16_engine_reference(const EngineJob& job, const EngineQuerySpec& spec);
EngineAnswer q94_engine_reference(const EngineJob& job, const EngineQuerySpec& spec);

/// Reads the (rows, value) answer from the sink stage's output table.
Result<EngineAnswer> engine_answer_from_sink(const exec::Table& sink_output);

/// Generic data-volume annotation for scheduling an engine job: source
/// stages take their real table sizes; downstream volumes decay by an
/// operator-class selectivity; edges carry the producer's output.
void annotate_engine_volumes(EngineJob& job);

/// The scan stage of every engine query: task t of dop reads only its
/// own row range of `src` (exec::range_slice, borrowed, no copy), keeps
/// the rows satisfying all `preds`, and emits `columns`; `key` is the
/// binding's output key. Shared by the Q1/Q16/Q94 and Q95 miniatures.
exec::StageBinding scan_binding(std::shared_ptr<const exec::Table> src,
                                std::vector<exec::ColumnPred> preds,
                                std::vector<std::string> columns, std::string key);

}  // namespace ditto::workload
