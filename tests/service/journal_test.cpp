// JobJournal: records round-trip through the store, replay rejects a
// corrupt segment or record and the pre-segment single-object format,
// appends write bounded bytes however long the journal grows,
// recovery-plan folding, and the kill-point property: stopped after ANY
// append (puts are atomic, so that is every crash point), replay +
// recovery converges to the same completed-job set as the
// uninterrupted run. The frame-level corruption corpus is
// RecordLogTest's (tests/storage/record_log_test.cpp).
#include "service/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "faults/fault_injector.h"
#include "storage/mem_store.h"
#include "storage/record_log.h"
#include "support/gated_store.h"

namespace ditto::service {
namespace {

constexpr char kKey[] = "journal/serve.log";
const std::string kSegments = std::string(kKey) + "/";

JournalRecord submit_rec(std::uint64_t jid, const std::string& payload,
                         const std::string& tier = "batch", Seconds deadline = 0.0) {
  JournalRecord r;
  r.kind = JournalKind::kSubmit;
  r.jid = jid;
  r.payload = payload;
  r.tier = tier;
  r.deadline = deadline;
  return r;
}

JournalRecord admit_rec(std::uint64_t jid) {
  JournalRecord r;
  r.kind = JournalKind::kAdmit;
  r.jid = jid;
  return r;
}

JournalRecord start_rec(std::uint64_t jid, int epoch) {
  JournalRecord r;
  r.kind = JournalKind::kStart;
  r.jid = jid;
  r.epoch = epoch;
  return r;
}

JournalRecord finish_rec(std::uint64_t jid, const std::string& state,
                         const std::string& error = "") {
  JournalRecord r;
  r.kind = JournalKind::kFinish;
  r.jid = jid;
  r.state = state;
  r.error = error;
  return r;
}

/// A representative job history: job 1 completed, job 2 admitted but
/// never started, job 3 caught mid-run, job 4 failed terminally.
std::vector<JournalRecord> sample_history() {
  return {
      submit_rec(1, "job q95 label=a tier=latency", "latency", 12.5),
      submit_rec(2, "job q1 label=b rows=5000"),
      admit_rec(1),
      start_rec(1, 0),
      submit_rec(3, "job q16 label=c"),
      admit_rec(2),
      finish_rec(1, "DONE"),
      admit_rec(3),
      start_rec(3, 0),
      submit_rec(4, "job q94 label=d"),
      admit_rec(4),
      start_rec(4, 0),
      finish_rec(4, "FAILED", "engine: task crashed (stage 2)"),
  };
}

/// Appends `rec` as-is (its own jid) through the journal's API.
Status append(JobJournal& journal, const JournalRecord& rec) {
  switch (rec.kind) {
    case JournalKind::kSubmit:
      return journal.append_submit(rec.payload, rec.tier, rec.deadline, rec.jid).status();
    case JournalKind::kAdmit:
      return journal.append_admit(rec.jid);
    case JournalKind::kStart:
      return journal.append_start(rec.jid, rec.epoch);
    case JournalKind::kFinish:
      return journal.append_finish(rec.jid, rec.state, rec.error);
  }
  return Status::internal("unknown kind");
}

void expect_equal(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.jid, b.jid);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.tier, b.tier);
  EXPECT_DOUBLE_EQ(a.deadline, b.deadline);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.error, b.error);
}

// The record text codec round-trips every field, spaces in the tail
// fields included, through the store.
TEST(JournalTest, EncodeParseRoundTrip) {
  const auto history = sample_history();
  storage::MemStore store;
  JobJournal journal(store, kKey);
  for (const auto& rec : history) ASSERT_TRUE(append(journal, rec).is_ok());
  const auto parsed = JobJournal::replay(store, kKey);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed->size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    SCOPED_TRACE(i);
    expect_equal((*parsed)[i], history[i]);
  }
}

TEST(JournalTest, AppendsThroughStoreAndReplays) {
  storage::MemStore store;
  JobJournal journal(store, kKey);
  const auto jid1 = journal.append_submit("job q95 label=a", "latency", 30.0);
  ASSERT_TRUE(jid1.ok());
  EXPECT_EQ(*jid1, 1u);
  const auto jid2 = journal.append_submit("job q1 label=b", "batch", 0.0);
  ASSERT_TRUE(jid2.ok());
  EXPECT_EQ(*jid2, 2u);
  ASSERT_TRUE(journal.append_admit(*jid1).is_ok());
  ASSERT_TRUE(journal.append_start(*jid1, 0).is_ok());
  ASSERT_TRUE(journal.append_finish(*jid1, "DONE", "").is_ok());
  EXPECT_EQ(journal.appended(), 5u);

  const auto replayed = JobJournal::replay(store, kKey);
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  ASSERT_EQ(replayed->size(), 5u);
  EXPECT_EQ((*replayed)[0].kind, JournalKind::kSubmit);
  EXPECT_EQ((*replayed)[0].payload, "job q95 label=a");
  EXPECT_EQ((*replayed)[0].tier, "latency");
  EXPECT_DOUBLE_EQ((*replayed)[0].deadline, 30.0);
  EXPECT_EQ((*replayed)[4].kind, JournalKind::kFinish);
  EXPECT_EQ((*replayed)[4].state, "DONE");
}

TEST(JournalTest, ReplayOfMissingKeyIsEmpty) {
  storage::MemStore store;
  const auto replayed = JobJournal::replay(store, "journal/nothing-here");
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->empty());
}

TEST(JournalTest, OpenContinuesJidNumberingAndExtendsLog) {
  storage::MemStore store;
  {
    JobJournal first(store, kKey);
    ASSERT_TRUE(first.append_submit("job q1 label=a", "batch", 0.0).ok());
    ASSERT_TRUE(first.append_submit("job q16 label=b", "batch", 0.0).ok());
  }
  // "Restart": a fresh journal over the same key must extend, not
  // clobber, and must number past the highest replayed jid.
  JobJournal second(store, kKey);
  const auto opened = second.open();
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(opened->size(), 2u);
  EXPECT_EQ((*opened)[1].payload, "job q16 label=b");
  const auto jid = second.append_submit("job q94 label=c", "batch", 0.0);
  ASSERT_TRUE(jid.ok());
  EXPECT_EQ(*jid, 3u);

  const auto replayed = JobJournal::replay(store, kKey);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 3u);
  EXPECT_EQ((*replayed)[0].payload, "job q1 label=a");
  EXPECT_EQ((*replayed)[2].payload, "job q94 label=c");
}

TEST(JournalTest, RecoveredSubmitReusesJid) {
  storage::MemStore store;
  JobJournal journal(store, kKey);
  const auto jid = journal.append_submit("job q1 label=x", "batch", 0.0, 7);
  ASSERT_TRUE(jid.ok());
  EXPECT_EQ(*jid, 7u);
  // Fresh assignment continues past the reused id.
  const auto next = journal.append_submit("job q1 label=y", "batch", 0.0);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 8u);
}

// A journal written before segmented logs is one object at the key:
// replay refuses it rather than reading it as an empty journal.
TEST(JournalTest, OldSingleObjectFormatIsRejected) {
  storage::MemStore store;
  ASSERT_TRUE(store.put(kKey, std::string("DITTOJL1") + std::string(24, '\x01')).is_ok());
  const auto replayed = JobJournal::replay(store, kKey);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
  JobJournal journal(store, kKey);
  EXPECT_EQ(journal.open().status().code(), StatusCode::kInvalidArgument);
}

// Flipping any single bit of any stored segment of a journal is
// INVALID_ARGUMENT at replay, never a shorter or different history.
TEST(JournalTest, BitFlipSweepNeverParsesCleanly) {
  storage::MemStore store;
  {
    JobJournal journal(store, kKey);
    for (const auto& rec : sample_history()) ASSERT_TRUE(append(journal, rec).is_ok());
  }
  for (const std::string& segment : store.list(kSegments)) {
    const std::string bytes = *store.get(segment);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mangled = bytes;
        mangled[pos] = static_cast<char>(mangled[pos] ^ (1 << bit));
        ASSERT_TRUE(store.put(segment, mangled).is_ok());
        EXPECT_EQ(JobJournal::replay(store, kKey).status().code(),
                  StatusCode::kInvalidArgument)
            << segment << ": flip at byte " << pos << " bit " << bit;
      }
    }
    ASSERT_TRUE(store.put(segment, bytes).is_ok());
  }
  EXPECT_TRUE(JobJournal::replay(store, kKey).ok());
}

// A well-framed record whose text is not a journal record is
// corruption too, wherever it sits in the log.
TEST(JournalTest, MidRecordCorruptionIsRejectedNotTruncated) {
  for (const std::string bad : {"submit jid=1", "kind=submit jid=1 tier=batch deadline=0",
                                "kind=launch jid=1", "kind=admit jid=0",
                                "kind=start jid=2 epoch=-1", "kind=finish jid=2 colour=red"}) {
    storage::MemStore store;
    storage::RecordLog log(store, kKey);
    ASSERT_TRUE(log.append("kind=admit jid=1").is_ok());
    ASSERT_TRUE(log.append(bad).is_ok());
    ASSERT_TRUE(log.append("kind=admit jid=3").is_ok());
    const auto replayed = JobJournal::replay(store, kKey);
    ASSERT_FALSE(replayed.ok()) << bad;
    EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// The bytes an append writes stay bounded as the journal grows: each
// put rewrites one segment of at most RecordLog::kSegmentBytes (plus
// the record, when one record alone exceeds it), not the whole log.
TEST(JournalTest, AppendBytesStayBoundedAsTheJournalGrows) {
  storage::MemStore store;
  JobJournal journal(store, kKey);
  const std::string payload = "job q95 rows=300000 orders=60000 seed=1 label=bounded";
  Bytes worst = 0;
  const auto bounded = [&](const auto& append_one) {
    const Bytes before = store.stats().bytes_written;
    ASSERT_TRUE(append_one());
    worst = std::max(worst, store.stats().bytes_written - before);
  };
  for (std::uint64_t jid = 1; jid <= 1250; ++jid) {  // 5,000 records
    bounded([&] { return journal.append_submit(payload, "batch", 0.0).ok(); });
    bounded([&] { return journal.append_admit(jid).is_ok(); });
    bounded([&] { return journal.append_start(jid, 0).is_ok(); });
    bounded([&] { return journal.append_finish(jid, "DONE", "").is_ok(); });
  }
  // A record here is under 128 bytes with its frame.
  EXPECT_LE(worst, storage::RecordLog::kSegmentBytes + 128);
  const auto replayed = JobJournal::replay(store, kKey);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->size(), 5000u);
  EXPECT_EQ(build_recovery(*replayed).completed, 1250u);
}

// A put that fails, at a segment roll or anywhere else, leaves the
// journal as it was: the retried append lands where the failed one
// would have, and replay sees no gap.
TEST(JournalTest, FailedPutDoesNotAdvanceTheSegment) {
  storage::MemStore inner;
  storage::GatedStore store(inner);
  JobJournal journal(store, kKey);
  faults::RetryPolicy once;
  once.max_attempts = 1;
  journal.set_retry_policy(once);
  for (std::uint64_t jid = 1; jid <= 60; ++jid) {
    store.fail_puts(true);
    ASSERT_FALSE(journal.append_submit("job q1 label=j" + std::to_string(jid), "batch", 0.0,
                                       jid)
                     .ok());
    store.fail_puts(false);
    ASSERT_TRUE(journal.append_submit("job q1 label=j" + std::to_string(jid), "batch", 0.0,
                                      jid)
                    .ok());
  }
  EXPECT_EQ(journal.appended(), 60u);
  ASSERT_GE(inner.list(kSegments).size(), 2u);
  const auto replayed = JobJournal::replay(inner, kKey);
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  ASSERT_EQ(replayed->size(), 60u);
  EXPECT_EQ(replayed->back().payload, "job q1 label=j60");
}

TEST(JournalTest, BuildRecoveryFoldsOneDispositionPerJob) {
  const auto plan = build_recovery(sample_history());
  ASSERT_EQ(plan.jobs.size(), 4u);
  EXPECT_EQ(plan.completed, 2u);
  EXPECT_EQ(plan.to_resubmit, 1u);
  EXPECT_EQ(plan.to_rerun, 1u);

  EXPECT_EQ(plan.jobs[0].jid, 1u);
  EXPECT_EQ(plan.jobs[0].disposition, RecoveredJob::Disposition::kSkip);
  EXPECT_EQ(plan.jobs[0].final_state, "DONE");

  EXPECT_EQ(plan.jobs[1].jid, 2u);
  EXPECT_EQ(plan.jobs[1].disposition, RecoveredJob::Disposition::kResubmit);
  EXPECT_EQ(plan.jobs[1].payload, "job q1 label=b rows=5000");

  EXPECT_EQ(plan.jobs[2].jid, 3u);
  EXPECT_EQ(plan.jobs[2].disposition, RecoveredJob::Disposition::kRerun);
  EXPECT_EQ(plan.jobs[2].next_epoch, 1);

  EXPECT_EQ(plan.jobs[3].jid, 4u);
  EXPECT_EQ(plan.jobs[3].disposition, RecoveredJob::Disposition::kSkip);
  EXPECT_EQ(plan.jobs[3].final_state, "FAILED");
}

TEST(JournalTest, RerunEpochAdvancesPastEveryObservedStart) {
  const std::vector<JournalRecord> records = {
      submit_rec(1, "job q1 label=a"),
      start_rec(1, 0),
      start_rec(1, 1),  // a prior recovery's re-run, also interrupted
  };
  const auto plan = build_recovery(records);
  ASSERT_EQ(plan.jobs.size(), 1u);
  EXPECT_EQ(plan.jobs[0].disposition, RecoveredJob::Disposition::kRerun);
  EXPECT_EQ(plan.jobs[0].next_epoch, 2);
}

// The kill-point property behind the chaos-restart harness: stop the
// journal after EVERY append (puts are atomic, so a SIGKILL leaves the
// store exactly as some append left it; the history is long enough to
// cross a segment roll), run the recovery protocol that `dittoctl
// serve --recover` implements — journaled non-terminal jobs re-run,
// journaled terminal jobs skipped, never-journaled spec jobs merged
// back in — and assert the journal converges to the SAME completed-job
// set as the uninterrupted run.
TEST(JournalTest, KillPointSweepConvergesToSameCompletedJobSet) {
  std::vector<std::string> spec_payloads;
  for (int i = 0; i < 10; ++i) {
    spec_payloads.push_back("job q95 label=j" + std::to_string(i) + " note=" +
                            std::string(360, static_cast<char>('a' + i)));
  }

  // The uninterrupted history (every job submitted, run, finished),
  // and the store as a kill after each append would leave it.
  using Snapshot = std::map<std::string, std::string>;
  storage::MemStore store;
  std::vector<Snapshot> cuts = {Snapshot{}};
  const auto snapshot = [&] {
    Snapshot snap;
    for (const std::string& key : store.list("")) snap[key] = *store.get(key);
    cuts.push_back(std::move(snap));
  };
  {
    JobJournal journal(store, kKey);
    for (const auto& p : spec_payloads) {
      ASSERT_TRUE(journal.append_submit(p, "batch", 0.0).ok());
      snapshot();
    }
    for (std::uint64_t jid = 1; jid <= spec_payloads.size(); ++jid) {
      ASSERT_TRUE(journal.append_admit(jid).is_ok());
      snapshot();
      ASSERT_TRUE(journal.append_start(jid, 0).is_ok());
      snapshot();
      ASSERT_TRUE(journal.append_finish(jid, "DONE", "").is_ok());
      snapshot();
    }
  }
  ASSERT_GE(store.list(kSegments).size(), 2u) << "the sweep must cross a segment roll";
  const std::set<std::string> want(spec_payloads.begin(), spec_payloads.end());

  for (std::size_t cut = 0; cut < cuts.size(); ++cut) {
    SCOPED_TRACE("killed after append " + std::to_string(cut));
    storage::MemStore crashed;
    for (const auto& [key, bytes] : cuts[cut]) ASSERT_TRUE(crashed.put(key, bytes).is_ok());

    JobJournal journal(crashed, kKey);
    const auto replayed = journal.open();
    ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
    ASSERT_EQ(replayed->size(), cut);
    const auto plan = build_recovery(*replayed);

    // Journaled jobs: finish the non-terminal ones (under the fresh
    // epoch the plan mandates for interrupted runs).
    std::set<std::string> journaled_payloads;
    for (const auto& job : plan.jobs) {
      journaled_payloads.insert(job.payload);
      if (job.disposition == RecoveredJob::Disposition::kSkip) continue;
      ASSERT_TRUE(journal.append_start(job.jid, job.next_epoch).is_ok());
      ASSERT_TRUE(journal.append_finish(job.jid, "DONE", "").is_ok());
    }
    // Spec jobs the crash caught before their SUBMIT reached the
    // journal: submitted fresh (the serve-spec merge).
    for (const auto& p : spec_payloads) {
      if (journaled_payloads.count(p)) continue;
      const auto jid = journal.append_submit(p, "batch", 0.0);
      ASSERT_TRUE(jid.ok());
      ASSERT_TRUE(journal.append_start(*jid, 0).is_ok());
      ASSERT_TRUE(journal.append_finish(*jid, "DONE", "").is_ok());
    }

    // Convergence: replaying the post-recovery journal shows every spec
    // job terminal exactly once, and nothing else.
    const auto after = JobJournal::replay(crashed, kKey);
    ASSERT_TRUE(after.ok()) << after.status().to_string();
    const auto converged = build_recovery(*after);
    EXPECT_EQ(converged.to_resubmit, 0u);
    EXPECT_EQ(converged.to_rerun, 0u);
    EXPECT_EQ(converged.completed, spec_payloads.size());
    std::set<std::string> completed;
    for (const auto& job : converged.jobs) {
      EXPECT_EQ(job.disposition, RecoveredJob::Disposition::kSkip);
      EXPECT_TRUE(completed.insert(job.payload).second)
          << "job journaled terminal twice: " << job.payload;
    }
    EXPECT_EQ(completed, want);
  }
}

TEST(JournalTest, InjectedAppendFaultsAreRetriedAndCounted) {
  storage::MemStore store;
  const auto spec = faults::parse_fault_spec("journal_error=0.5,seed=11");
  ASSERT_TRUE(spec.ok());
  faults::FaultInjector injector(*spec);
  JobJournal journal(store, kKey, &injector);
  faults::RetryPolicy patient;  // outlasts any plausible losing streak at p=0.5
  patient.max_attempts = 20;
  patient.initial_backoff = 1e-5;
  patient.max_backoff = 1e-4;
  journal.set_retry_policy(patient);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(journal.append_submit("job q1 label=j" + std::to_string(i), "batch", 0.0).ok());
  }
  EXPECT_GT(injector.counts().journal_errors, 0u);
  const auto replayed = JobJournal::replay(store, kKey);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->size(), 12u);
}

TEST(JournalTest, ExhaustedSubmitAppendSurfacesToCaller) {
  storage::MemStore store;
  const auto spec = faults::parse_fault_spec("journal_error=1");
  ASSERT_TRUE(spec.ok());
  faults::FaultInjector injector(*spec);
  JobJournal journal(store, kKey, &injector);
  faults::RetryPolicy fast;
  fast.max_attempts = 2;
  fast.initial_backoff = 1e-5;
  fast.max_backoff = 1e-4;
  journal.set_retry_policy(fast);
  const auto jid = journal.append_submit("job q1 label=doomed", "batch", 0.0);
  ASSERT_FALSE(jid.ok());
  EXPECT_EQ(jid.status().code(), StatusCode::kUnavailable);
  // The failed append committed nothing.
  EXPECT_EQ(journal.appended(), 0u);
  EXPECT_TRUE(store.list(kSegments).empty());
}

}  // namespace
}  // namespace ditto::service
