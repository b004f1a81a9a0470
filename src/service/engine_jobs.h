// Bridges the workload library's catalogue of executable TPC-DS
// miniatures (workload::engine_queries(): Q1, Q16, Q94, Q95) into
// service::JobSubmissions: builds the volume-annotated engine job,
// applies physics for the scheduling model, and packages the source
// tables as the submission's keepalive — one call turns a query name
// into something JobService::submit() accepts.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "exec/table.h"
#include "service/job_service.h"
#include "storage/object_store.h"
#include "workload/engine_queries.h"

namespace ditto::service {

struct EngineQueryJob {
  JobSubmission submission;  ///< cache_id pre-filled (version 0); clear
                             ///< it to opt the job out of caching

  /// Ground truth from the query's single-node reference.
  std::int64_t ref_rows = 0;
  double ref_value = 0.0;

  /// The stage whose output carries the answer.
  StageId sink = kNoStage;

  /// Reads (rows, value) from the sink stage's output table.
  Result<workload::EngineAnswer> extract(const exec::Table& sink_output) const {
    return workload::engine_answer_from_sink(sink_output);
  }
};

/// Canonical, whitespace-free signature of the input data a query
/// reads: every EngineQuerySpec field, so two submissions share a
/// result-cache identity only when they would generate byte-identical
/// source tables (structural_fingerprint alone deliberately ignores
/// data volumes and seeds).
std::string engine_query_signature(std::string_view query,
                                   const workload::EngineQuerySpec& spec);

/// Builds a submission-ready engine job for the
/// workload::engine_queries() entry named `query`. `external` is the
/// storage model physics instantiates step models against (it should
/// match the store the service runs on).
Result<EngineQueryJob> make_engine_query_job(std::string_view query,
                                             const workload::EngineQuerySpec& spec,
                                             const storage::StorageModel& external);

}  // namespace ditto::service
