// JobJournal: durable write-ahead journal of job lifecycle transitions,
// with crash-tolerant replay — the event-sourcing half of the service
// tier's resilience story (Netherite's durable-journal pattern from
// PAPERS.md, sized for this service).
//
// Every job the service accepts appends records through any
// ObjectStore (a FileStore in production so the log survives SIGKILL):
//
//   SUBMIT  jid payload tier deadline    the re-runnable job description
//                                        (a serve-spec `job` line)
//   ADMIT   jid                          planned + slots leased
//   START   jid epoch                    engine run began under `epoch`
//   FINISH  jid state error              exactly-one terminal transition
//
// Each record is one text payload (`kind=start jid=3 epoch=0`, written
// with storage::format_fields) on a storage::RecordLog at the journal's
// key: CRC-framed records in bounded segments `<key>/<seq>`, so an
// append rewrites one segment of at most a few KiB, not the whole log.
// Puts are atomic (ObjectStore::put), so a crash loses at most the
// append in flight and never leaves a torn record; replay therefore
// treats any bad segment, unparsable record or single object at `key`
// (the pre-segment format) as INVALID_ARGUMENT.
//
// Recovery: build_recovery() folds replayed records into one
// disposition per jid — completed jobs are skipped, jobs that never
// started are re-enqueued, and jobs caught RUNNING are re-run under a
// FRESH exchange epoch (epoch = last started + 1; idempotent,
// epoch-namespaced exchange publishes make that re-execution
// byte-safe). `dittoctl serve --recover` turns the plan back into
// submissions.
//
// Appends are retried under a RetryPolicy; an exhausted SUBMIT append
// is returned to the caller (losing a SUBMIT would lose the job),
// while later transitions degrade to at-least-once semantics (a lost
// FINISH merely causes one safe re-execution). Thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "faults/fault_injector.h"
#include "faults/retry_policy.h"
#include "storage/object_store.h"
#include "storage/record_log.h"

namespace ditto::service {

enum class JournalKind { kSubmit, kAdmit, kStart, kFinish };
const char* journal_kind_name(JournalKind k);

struct JournalRecord {
  JournalKind kind = JournalKind::kSubmit;
  std::uint64_t jid = 0;  ///< journal job id, stable across restarts

  // SUBMIT only.
  std::string payload;  ///< serve-spec `job` line that re-creates the job
  std::string tier;     ///< "latency" | "batch"
  Seconds deadline = 0.0;

  // START only.
  int epoch = 0;

  // FINISH only.
  std::string state;  ///< terminal state name (DONE/FAILED/CANCELLED)
  std::string error;  ///< status message, "" when DONE
};

/// What a replayed journal says should happen to one job.
struct RecoveredJob {
  enum class Disposition {
    kResubmit,  ///< SUBMIT/ADMIT seen, never started: re-enqueue as-is
    kRerun,     ///< START without FINISH: re-run under a fresh epoch
    kSkip,      ///< FINISH seen: already terminal, do not run again
  };
  std::uint64_t jid = 0;
  Disposition disposition = Disposition::kResubmit;
  std::string payload;
  std::string tier;
  Seconds deadline = 0.0;
  int next_epoch = 0;        ///< epoch a re-run must use
  std::string final_state;   ///< kSkip: the recorded terminal state
};

struct RecoveryPlan {
  std::vector<RecoveredJob> jobs;  ///< ordered by jid

  std::size_t to_resubmit = 0;
  std::size_t to_rerun = 0;
  std::size_t completed = 0;
};

/// Folds records (replay order) into per-jid dispositions. Pure.
RecoveryPlan build_recovery(const std::vector<JournalRecord>& records);

class JobJournal {
 public:
  /// Appends go to `store` under `key`; the store must outlive the
  /// journal. `injector` (optional, not owned) arms the journal-write
  /// fault site.
  JobJournal(storage::ObjectStore& store, std::string key,
             faults::FaultInjector* injector = nullptr);

  /// Every record journaled at `key` in `store`, oldest first. No
  /// segment is an empty journal; a corrupt segment or record, or an
  /// object at exactly `key`, is INVALID_ARGUMENT.
  static Result<std::vector<JournalRecord>> replay(const storage::ObjectStore& store,
                                                   const std::string& key);

  /// Replays the existing log (if any), returns its records, and
  /// positions appends after them with jid numbering past the highest
  /// replayed id. Call once before the first append when recovering; a
  /// fresh key replays nothing.
  Result<std::vector<JournalRecord>> open();

  /// Appends SUBMIT and returns the assigned jid. When `jid` is
  /// non-zero (a recovered job) it is reused and no numbering advances.
  Result<std::uint64_t> append_submit(const std::string& payload, const std::string& tier,
                                      Seconds deadline, std::uint64_t jid = 0);
  Status append_admit(std::uint64_t jid);
  Status append_start(std::uint64_t jid, int epoch);
  Status append_finish(std::uint64_t jid, const std::string& state, const std::string& error);

  /// Records appended (not replayed) through this instance.
  std::size_t appended() const;

  const std::string& key() const { return log_.key(); }

  /// Retry policy for the underlying put (default: 3 quick attempts).
  void set_retry_policy(faults::RetryPolicy policy);

 private:
  Status append_locked(const JournalRecord& rec);

  faults::FaultInjector* injector_;
  faults::RetryPolicy retry_;

  mutable std::mutex mu_;
  storage::RecordLog log_;
  std::uint64_t next_jid_ = 1;
  std::size_t appended_ = 0;
};

}  // namespace ditto::service
