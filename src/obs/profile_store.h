// StageProfileStore: per-stage execution profiles — the data half of
// the paper's §6.5 profiling loop for recurring jobs.
//
// Every completed task feeds one TaskSample (compute / transport /
// queue / retry breakdown) into the profile keyed by
//
//     (plan fingerprint, stage id, DoP)
//
// where the fingerprint is dag::structural_fingerprint of the job's
// model DAG, so a second submission of the same query shape lands on
// the same history regardless of data volumes. Aggregation keeps a
// count and EWMAs of each component. The store lives in memory; a
// long-lived JobService keeps one across submissions.
//
// The store is thread-safe: engine tasks record concurrently while a
// /metrics scrape or a refit pass reads a snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "dag/types.h"

namespace ditto::obs {

/// Observed breakdown of one completed task (the winning attempt).
struct TaskSample {
  double task_seconds = 0.0;       ///< end - start of the winning attempt
  double compute_seconds = 0.0;    ///< inside the stage function
  double transport_seconds = 0.0;  ///< gather (read) + publish (write)
  double queue_seconds = 0.0;      ///< pool submit -> attempt start
  int retries = 0;                 ///< attempts before the winning one
  /// Seconds spent inside named operator kernels during the stage
  /// function (group_by / join / filter), from the
  /// thread-local accounting in exec/kernels.h. A subset of
  /// compute_seconds; keys absent when the kernel never ran.
  std::map<std::string, double> kernel_seconds;
};

/// Aggregated history of one (fingerprint, stage, DoP) key.
struct StageProfile {
  std::uint64_t fingerprint = 0;
  StageId stage = kNoStage;
  int dop = 0;

  std::size_t count = 0;    ///< tasks observed, all runs
  std::size_t retries = 0;  ///< extra attempts summed over tasks
  // Exponentially-weighted means (alpha = kEwmaAlpha, seeded by the
  // first sample) — recent runs dominate, old calibration decays.
  double ewma_task = 0.0;
  double ewma_compute = 0.0;
  double ewma_transport = 0.0;
  double ewma_queue = 0.0;
  /// Per-kernel EWMAs (same alpha), keyed by kernel name; a key is
  /// seeded by the first sample that reports it. Lets timemodel.drift
  /// see WHERE the compute model shifted when kernels change.
  std::map<std::string, double> ewma_kernel;

  static constexpr double kEwmaAlpha = 0.2;

  void add(const TaskSample& s);
};

class StageProfileStore {
 public:
  StageProfileStore() = default;

  /// Folds one task observation into the (fp, stage, dop) profile.
  void record(std::uint64_t fingerprint, StageId stage, int dop, const TaskSample& sample);

  /// Copy-out lookups (the store keeps mutating under concurrent runs).
  std::optional<StageProfile> lookup(std::uint64_t fingerprint, StageId stage, int dop) const;
  std::vector<StageProfile> profiles_for(std::uint64_t fingerprint) const;
  std::vector<StageProfile> all() const;
  std::size_t size() const;
  void clear();

 private:
  using Key = std::tuple<std::uint64_t, StageId, int>;
  mutable std::mutex mu_;
  std::map<Key, StageProfile> profiles_;
};

/// "deadbeef01234567" — fingerprints render as fixed-width hex (JSON
/// numbers cannot carry 64 bits exactly).
std::string fingerprint_hex(std::uint64_t fp);
Result<std::uint64_t> parse_fingerprint_hex(const std::string& hex);

}  // namespace ditto::obs
