// "Physics": turns a query DAG annotated with data volumes into
// ground-truth step parameters under a given storage backend.
//
// For every stage the instantiation emits:
//   * one read step per external input:    alpha = bytes / store bandwidth,
//                                          beta  = per-request latency overhead
//   * one read step per incoming edge:     same, from the edge's byte count;
//     broadcast/all-gather edges put their transfer into beta instead of
//     alpha (every consumer task reads the FULL payload, so the time does
//     not shrink with parallelism)
//   * one compute step:                    alpha = bytes processed / rate(op),
//                                          beta  = small per-task overhead
//   * one write step per outgoing edge and one for final output.
//
// This is how the repo substitutes for the paper's real S3/Redis + CPU
// measurements: step times follow the same alpha/d + beta law with
// parameters derived from data volume and published service
// characteristics, so the scheduler faces the same trade-offs.
#pragma once

#include "dag/job_dag.h"
#include "storage/object_store.h"

namespace ditto::workload {

struct ComputeRates {
  /// Per-core processing throughput by operator class (bytes/second).
  /// The defaults model the original row-at-a-time operator
  /// formulations (the oracle in tests/support/reference.h) and stay
  /// the repo-wide baseline so existing experiments remain comparable.
  double map_bps = 400e6;
  double join_bps = 150e6;
  double groupby_bps = 200e6;
  double reduce_bps = 250e6;
  double default_bps = 300e6;

  double rate_for(const std::string& op) const;
};

struct PhysicsParams {
  storage::StorageModel store;       ///< external storage backing shuffles
  ComputeRates compute;
  double request_overhead_factor = 4.0;  ///< beta = latency x this
  double compute_beta = 0.05;            ///< inherent per-task compute overhead

  /// Tiered storage (paper §6.3 pattern): transfers at or below
  /// `fast_threshold` use `fast_store` instead of `store`. Disabled
  /// when `use_fast_store` is false.
  bool use_fast_store = false;
  storage::StorageModel fast_store;
  Bytes fast_threshold = 64_MB;

  const storage::StorageModel& store_for(Bytes n) const {
    return (use_fast_store && n <= fast_threshold) ? fast_store : store;
  }
};

/// Clears existing steps and instantiates fresh ones from the stage
/// and edge annotations. Also sets each stage's rho (memory tied to
/// data, in GB) and sigma (per-function footprint, in GB) so the cost
/// model M(s, d) = rho + sigma d matches the memory metric.
void apply_physics(JobDag& dag, const PhysicsParams& params);

}  // namespace ditto::workload
