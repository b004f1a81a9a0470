// TraceCollector: unified span/instant/counter event collection.
//
// The runtime layers (scheduler, engine, exchange, shm, storage, sim)
// emit events into a collector; the collector exports them as Chrome
// trace-event JSON, loadable in Perfetto / chrome://tracing. Identity
// follows the paper's vocabulary: `pid` is the server track, `tid` the
// task (or hardware thread) within it, and every event carries a
// category such as "scheduler", "engine.task", or "exchange".
//
// Cost discipline: collection is OFF by default. Every emit path first
// checks one relaxed atomic, so instrumented hot loops (channel sends,
// store gets) pay a single predictable branch when tracing is disabled;
// tier-1 bench numbers are unaffected. Defining DITTO_OBS_DISABLED at
// compile time removes the macro-based instrumentation entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ditto::obs {

class Counter;

/// Key/value annotations attached to an event (rendered into "args").
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

enum class EventPhase {
  kSpan,     ///< Chrome "X" — complete event with ts + dur
  kInstant,  ///< Chrome "i" — point event
  kCounter,  ///< Chrome "C" — sampled counter track
  kMeta,     ///< Chrome "M" — process/thread naming metadata
};

struct TraceEvent {
  EventPhase phase = EventPhase::kSpan;
  std::string cat;
  std::string name;
  std::uint64_t ts_us = 0;   ///< event (or span start) time, microseconds
  std::uint64_t dur_us = 0;  ///< span duration (kSpan only)
  std::int64_t pid = 0;      ///< server track (-1 = job-level track)
  std::int64_t tid = 0;      ///< task / thread within the server
  double value = 0.0;        ///< counter sample (kCounter only)
  TraceArgs args;
};

class TraceCollector {
 public:
  TraceCollector();

  /// Process-wide default collector used by the DITTO_TRACE_* macros
  /// and the built-in instrumentation. Disabled until someone calls
  /// set_enabled(true) (e.g. dittoctl --trace-out).
  static TraceCollector& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Memory bound for long-running collection (serve mode): the
  /// collector keeps at most `cap` events in a ring — once full, each
  /// new event overwrites the oldest and bumps dropped_events() (and
  /// the `trace.dropped_events` metric). Lowering the capacity below
  /// the current event count discards the oldest events immediately.
  /// Defaults to kDefaultCapacity; cap is clamped to >= 1.
  void set_capacity(std::size_t cap);
  std::size_t capacity() const;
  std::uint64_t dropped_events() const;

  static constexpr std::size_t kDefaultCapacity = 1 << 18;  // ~262k events

  /// Microseconds of wall time since the collector's epoch (creation).
  std::uint64_t now_us() const;

  /// Emitters. All are thread-safe no-ops while disabled, so call sites
  /// need no guard of their own (guarding anyway saves arg building).
  void span(std::string cat, std::string name, std::uint64_t ts_us, std::uint64_t dur_us,
            std::int64_t pid = 0, std::int64_t tid = 0, TraceArgs args = {});
  void instant(std::string cat, std::string name, std::uint64_t ts_us, std::int64_t pid = 0,
               std::int64_t tid = 0, TraceArgs args = {});
  void counter(std::string cat, std::string name, std::uint64_t ts_us, double value,
               std::int64_t pid = 0);
  /// Names a pid track in the viewer ("server 3", "job").
  void process_name(std::int64_t pid, std::string name);

  std::size_t size() const;
  std::vector<TraceEvent> events() const;
  void clear();

  /// {"traceEvents":[...]} — the Chrome trace-event format.
  std::string to_chrome_json() const;

  Status write_chrome_json(const std::string& path) const;

 private:
  void push(TraceEvent e);
  /// Chronological copy of the ring (oldest first). Caller holds mu_.
  std::vector<TraceEvent> ordered_locked() const;

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  /// Ring storage: grows to capacity_, then wraps at head_.
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t head_ = 0;  ///< next overwrite slot once the ring is full
  std::uint64_t dropped_ = 0;
  Counter* dropped_counter_ = nullptr;  ///< lazily-bound trace.dropped_events
};

/// RAII wall-clock span against the global collector. Captures the
/// start time at construction and emits one complete event at scope
/// exit; fully inert (one atomic load) when tracing is disabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name, std::int64_t pid = 0, std::int64_t tid = 0)
      : active_(TraceCollector::global().enabled()), cat_(cat), name_(name), pid_(pid),
        tid_(tid) {
    if (active_) start_us_ = TraceCollector::global().now_us();
  }
  ~ScopedSpan() {
    if (!active_) return;
    TraceCollector& tc = TraceCollector::global();
    const std::uint64_t end = tc.now_us();
    tc.span(cat_, name_, start_us_, end - start_us_, pid_, tid_, std::move(args_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  void arg(std::string key, std::string value) {
    if (active_) args_.emplace_back(std::move(key), std::move(value));
  }

 private:
  bool active_;
  const char* cat_;
  const char* name_;
  std::int64_t pid_;
  std::int64_t tid_;
  std::uint64_t start_us_ = 0;
  TraceArgs args_;
};

#if defined(DITTO_OBS_DISABLED)
#define DITTO_TRACE_SCOPE(cat, name) do { } while (0)
#else
/// Scoped span over the rest of the enclosing block.
#define DITTO_TRACE_SCOPE(cat, name) \
  ::ditto::obs::ScopedSpan DITTO_CONCAT(_ditto_span_, __LINE__)(cat, name)
#endif

}  // namespace ditto::obs
