#include "obs/trace.h"

#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"

namespace ditto::obs {

TraceCollector::TraceCollector() : epoch_(std::chrono::steady_clock::now()) {}

TraceCollector& TraceCollector::global() {
  static TraceCollector collector;
  return collector;
}

std::uint64_t TraceCollector::now_us() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - epoch_)
                                        .count());
}

void TraceCollector::push(TraceEvent e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() < capacity_) {
    events_.push_back(std::move(e));
    return;
  }
  events_[head_] = std::move(e);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    if (dropped_counter_ == nullptr) dropped_counter_ = &mx.counter("trace.dropped_events");
    dropped_counter_->add();
  }
}

std::vector<TraceEvent> TraceCollector::ordered_locked() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

void TraceCollector::set_capacity(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  cap = cap == 0 ? 1 : cap;
  if (!events_.empty()) {
    // Normalize to chronological order, then keep the newest `cap`.
    std::vector<TraceEvent> ordered = ordered_locked();
    if (ordered.size() > cap) {
      dropped_ += ordered.size() - cap;
      ordered.erase(ordered.begin(), ordered.end() - static_cast<std::ptrdiff_t>(cap));
    }
    events_ = std::move(ordered);
  }
  head_ = 0;
  capacity_ = cap;
}

std::size_t TraceCollector::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::uint64_t TraceCollector::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceCollector::span(std::string cat, std::string name, std::uint64_t ts_us,
                          std::uint64_t dur_us, std::int64_t pid, std::int64_t tid,
                          TraceArgs args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = EventPhase::kSpan;
  e.cat = std::move(cat);
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  push(std::move(e));
}

void TraceCollector::instant(std::string cat, std::string name, std::uint64_t ts_us,
                             std::int64_t pid, std::int64_t tid, TraceArgs args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = EventPhase::kInstant;
  e.cat = std::move(cat);
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  push(std::move(e));
}

void TraceCollector::counter(std::string cat, std::string name, std::uint64_t ts_us,
                             double value, std::int64_t pid) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = EventPhase::kCounter;
  e.cat = std::move(cat);
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.value = value;
  e.pid = pid;
  push(std::move(e));
}

void TraceCollector::process_name(std::int64_t pid, std::string name) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = EventPhase::kMeta;
  e.name = "process_name";
  e.pid = pid;
  e.args.emplace_back("name", std::move(name));
  push(std::move(e));
}

std::size_t TraceCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceCollector::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ordered_locked();
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  head_ = 0;
  dropped_ = 0;
}

namespace {

const char* phase_code(EventPhase p) {
  switch (p) {
    case EventPhase::kSpan: return "X";
    case EventPhase::kInstant: return "i";
    case EventPhase::kCounter: return "C";
    case EventPhase::kMeta: return "M";
  }
  return "?";
}

void append_event_json(std::ostringstream& os, const TraceEvent& e) {
  os << "{\"name\":\"" << json_escape(e.name) << "\"";
  if (!e.cat.empty()) os << ",\"cat\":\"" << json_escape(e.cat) << "\"";
  os << ",\"ph\":\"" << phase_code(e.phase) << "\"";
  os << ",\"ts\":" << e.ts_us;
  if (e.phase == EventPhase::kSpan) os << ",\"dur\":" << e.dur_us;
  if (e.phase == EventPhase::kInstant) os << ",\"s\":\"t\"";
  os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
  if (e.phase == EventPhase::kCounter) {
    os << ",\"args\":{\"value\":" << json_number(e.value) << "}";
  } else if (!e.args.empty()) {
    os << ",\"args\":{";
    bool first = true;
    for (const auto& [k, v] : e.args) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
    }
    os << "}";
  }
  os << "}";
}

}  // namespace

std::string TraceCollector::to_chrome_json() const {
  const std::vector<TraceEvent> snapshot = events();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : snapshot) {
    if (!first) os << ",\n";
    first = false;
    append_event_json(os, e);
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

Status TraceCollector::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::unavailable("cannot open " + path + " for writing");
  f << to_chrome_json();
  f.flush();
  if (!f) return Status::unavailable("write to " + path + " failed");
  return Status::ok();
}

}  // namespace ditto::obs
