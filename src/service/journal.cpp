#include "service/journal.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"

namespace ditto::service {
namespace {

/// One record as text. `payload` (SUBMIT) and `error` (FINISH) come
/// last and are tails, so they may contain spaces.
std::string record_text(const JournalRecord& rec) {
  storage::RecordFields f = {{"kind", journal_kind_name(rec.kind)},
                             {"jid", std::to_string(rec.jid)}};
  switch (rec.kind) {
    case JournalKind::kSubmit:
      f.emplace_back("tier", rec.tier.empty() ? "batch" : rec.tier);
      f.emplace_back("deadline", storage::format_double(rec.deadline));
      f.emplace_back("payload", rec.payload);
      break;
    case JournalKind::kAdmit:
      break;
    case JournalKind::kStart:
      f.emplace_back("epoch", std::to_string(rec.epoch));
      break;
    case JournalKind::kFinish:
      f.emplace_back("state", rec.state);
      f.emplace_back("error", rec.error);
      break;
  }
  return storage::format_fields(f);
}

Result<JournalKind> parse_kind(const std::string& kind) {
  for (const JournalKind k :
       {JournalKind::kSubmit, JournalKind::kAdmit, JournalKind::kStart, JournalKind::kFinish}) {
    if (kind == journal_kind_name(k)) return k;
  }
  return Status::invalid_argument("unknown record kind '" + kind + "'");
}

Result<JournalRecord> parse_record_text(std::string_view text) {
  DITTO_ASSIGN_OR_RETURN(const storage::RecordFields fields,
                         storage::parse_fields(text, {"payload", "error"}));
  JournalRecord rec;
  bool saw_kind = false;
  for (const auto& [key, value] : fields) {
    if (key == "kind") {
      DITTO_ASSIGN_OR_RETURN(rec.kind, parse_kind(value));
      saw_kind = true;
    } else if (key == "jid") {
      DITTO_ASSIGN_OR_RETURN(rec.jid, storage::parse_u64("jid", value));
    } else if (key == "tier") {
      if (value != "latency" && value != "batch") {
        return Status::invalid_argument("bad tier '" + value + "'");
      }
      rec.tier = value;
    } else if (key == "deadline") {
      DITTO_ASSIGN_OR_RETURN(rec.deadline, storage::parse_nonnegative("deadline", value));
    } else if (key == "epoch") {
      DITTO_ASSIGN_OR_RETURN(const std::uint64_t e, storage::parse_u64("epoch", value));
      if (e > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        return Status::invalid_argument("bad epoch '" + value + "'");
      }
      rec.epoch = static_cast<int>(e);
    } else if (key == "state") {
      rec.state = value;
    } else if (key == "payload") {
      rec.payload = value;
    } else if (key == "error") {
      rec.error = value;
    } else {
      return Status::invalid_argument("unknown field '" + key + "'");
    }
  }
  if (!saw_kind) return Status::invalid_argument("record without kind");
  if (rec.jid == 0) return Status::invalid_argument("record without jid");
  if (rec.kind == JournalKind::kSubmit && rec.payload.empty()) {
    return Status::invalid_argument("submit record without payload");
  }
  if (rec.kind == JournalKind::kFinish && rec.state.empty()) {
    return Status::invalid_argument("finish record without state");
  }
  return rec;
}

/// A record log's payloads as journal records. Errors keep their code
/// and name the journal.
Result<std::vector<JournalRecord>> parse_records(const std::string& key,
                                                 const Result<std::vector<std::string>>& texts) {
  if (!texts.ok()) {
    return Status(texts.status().code(), "journal '" + key + "': " + texts.status().message());
  }
  std::vector<JournalRecord> records;
  records.reserve(texts->size());
  for (const std::string& text : *texts) {
    auto rec = parse_record_text(text);
    if (!rec.ok()) {
      return Status::invalid_argument("journal '" + key + "': record " +
                                      std::to_string(records.size()) + ": " +
                                      rec.status().message());
    }
    records.push_back(std::move(*rec));
  }
  return records;
}

void note_append(bool ok) {
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (!mx.enabled()) return;
  mx.counter(ok ? "service.journal_appends" : "service.journal_append_failures").add();
}

}  // namespace

const char* journal_kind_name(JournalKind k) {
  switch (k) {
    case JournalKind::kSubmit: return "submit";
    case JournalKind::kAdmit: return "admit";
    case JournalKind::kStart: return "start";
    case JournalKind::kFinish: return "finish";
  }
  return "unknown";
}

Result<std::vector<JournalRecord>> JobJournal::replay(const storage::ObjectStore& store,
                                                      const std::string& key) {
  return parse_records(key, storage::RecordLog::read(store, key));
}

RecoveryPlan build_recovery(const std::vector<JournalRecord>& records) {
  struct Fold {
    RecoveredJob job;
    bool started = false;
    bool finished = false;
    int last_epoch = 0;
  };
  std::map<std::uint64_t, Fold> by_jid;
  for (const JournalRecord& rec : records) {
    Fold& f = by_jid[rec.jid];
    f.job.jid = rec.jid;
    switch (rec.kind) {
      case JournalKind::kSubmit:
        f.job.payload = rec.payload;
        f.job.tier = rec.tier;
        f.job.deadline = rec.deadline;
        break;
      case JournalKind::kAdmit:
        break;
      case JournalKind::kStart:
        f.started = true;
        f.last_epoch = std::max(f.last_epoch, rec.epoch);
        break;
      case JournalKind::kFinish:
        f.finished = true;
        f.job.final_state = rec.state;
        break;
    }
  }
  RecoveryPlan plan;
  for (auto& [jid, f] : by_jid) {
    if (f.finished) {
      f.job.disposition = RecoveredJob::Disposition::kSkip;
      f.job.next_epoch = f.last_epoch;
      ++plan.completed;
    } else if (f.started) {
      // Interrupted mid-run: the fresh epoch namespaces its exchange
      // keys away from the dead attempt's partial publishes.
      f.job.disposition = RecoveredJob::Disposition::kRerun;
      f.job.next_epoch = f.last_epoch + 1;
      ++plan.to_rerun;
    } else {
      f.job.disposition = RecoveredJob::Disposition::kResubmit;
      f.job.next_epoch = f.last_epoch;
      ++plan.to_resubmit;
    }
    plan.jobs.push_back(std::move(f.job));
  }
  return plan;
}

JobJournal::JobJournal(storage::ObjectStore& store, std::string key,
                       faults::FaultInjector* injector)
    : injector_(injector), log_(store, std::move(key)) {
  retry_.max_attempts = 3;
  retry_.initial_backoff = 1e-3;
  retry_.max_backoff = 0.02;
  retry_.budget = 0.5;
}

void JobJournal::set_retry_policy(faults::RetryPolicy policy) {
  std::lock_guard<std::mutex> lk(mu_);
  retry_ = policy;
}

Result<std::vector<JournalRecord>> JobJournal::open() {
  std::lock_guard<std::mutex> lk(mu_);
  DITTO_ASSIGN_OR_RETURN(std::vector<JournalRecord> records, parse_records(log_.key(), log_.open()));
  for (const JournalRecord& rec : records) next_jid_ = std::max(next_jid_, rec.jid + 1);
  return records;
}

Status JobJournal::append_locked(const JournalRecord& rec) {
  const std::string text = record_text(rec);
  const Status st = faults::retry_status(retry_, "journal.append", [&] {
    if (injector_ != nullptr && injector_->should_fail_journal(log_.key())) {
      return Status::unavailable("injected journal-append failure (" + log_.key() + ")");
    }
    return log_.append(text);
  });
  note_append(st.is_ok());
  if (!st.is_ok()) return st;
  ++appended_;
  return Status::ok();
}

Result<std::uint64_t> JobJournal::append_submit(const std::string& payload,
                                                const std::string& tier, Seconds deadline,
                                                std::uint64_t jid) {
  std::lock_guard<std::mutex> lk(mu_);
  JournalRecord rec;
  rec.kind = JournalKind::kSubmit;
  rec.jid = jid != 0 ? jid : next_jid_;
  rec.payload = payload;
  rec.tier = tier;
  rec.deadline = deadline;
  DITTO_RETURN_IF_ERROR(append_locked(rec));
  if (jid == 0) ++next_jid_;
  next_jid_ = std::max(next_jid_, rec.jid + 1);
  return rec.jid;
}

Status JobJournal::append_admit(std::uint64_t jid) {
  std::lock_guard<std::mutex> lk(mu_);
  JournalRecord rec;
  rec.kind = JournalKind::kAdmit;
  rec.jid = jid;
  return append_locked(rec);
}

Status JobJournal::append_start(std::uint64_t jid, int epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  JournalRecord rec;
  rec.kind = JournalKind::kStart;
  rec.jid = jid;
  rec.epoch = epoch;
  return append_locked(rec);
}

Status JobJournal::append_finish(std::uint64_t jid, const std::string& state,
                                 const std::string& error) {
  std::lock_guard<std::mutex> lk(mu_);
  JournalRecord rec;
  rec.kind = JournalKind::kFinish;
  rec.jid = jid;
  rec.state = state;
  rec.error = error;
  return append_locked(rec);
}

std::size_t JobJournal::appended() const {
  std::lock_guard<std::mutex> lk(mu_);
  return appended_;
}

}  // namespace ditto::service
