// Measurement plumbing for the repo benchmark (perfbench/perfbench.cpp):
// percentile selection, failure tallies, key-prefix classification, a
// timing ObjectStore decorator, an in-memory span log written as
// Chrome trace JSON, and the metric report that ends every run.
//
// Everything here observes the program from outside: it wraps the
// store handed to the engine or service and times calls into public
// functions. Nothing in src/ is modified or instrumented for it.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "storage/object_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call (one process-wide epoch for every span).
inline double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

constexpr double kMissing = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it. A failed job enters as kMissing, so it
/// misses every latency limit. Empty input gives kMissing.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return kMissing;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Samples strictly above the nearest-rank q-percentile of n samples:
/// the tail a reported percentile rests on (>= 10 is the rule).
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  return n - static_cast<std::size_t>(std::max(1.0, rank));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// A fixed ordered-map kernel (two maps of 8000 updates over 50000
/// keys, a few milliseconds) that a single-threaded workload times
/// next to its own rounds. The program's time over this kernel's time
/// cancels most of the host's speed, which on a shared host drifts by
/// up to 2x over minutes. Of the kernels tried (sort, priority queue,
/// larger maps, lookups), this small tree tracked the simulator best.
/// Returns a checksum so the work is not elided.
inline std::uint64_t reference_kernel() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t sum = 0;
  for (int rep = 0; rep < 2; ++rep) {
    std::map<std::uint64_t, double> m;
    for (std::size_t i = 0; i < 8000; ++i) m[next() % 50000] += static_cast<double>(i);
    for (const auto& [k, d] : m) sum = sum * 31 + k + static_cast<std::uint64_t>(d);
  }
  return sum;
}

/// Attempted vs failed operations. A wrong answer, a failed job and a
/// rejected submission each count once as failed.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// Which service layer a store key belongs to. Exchange keys are
/// namespaced by DAG name or per-job prefix, so anything that is not a
/// journal, sink or cache object is exchange traffic.
enum class KeyClass : int { kExchange = 0, kJournal = 1, kSinks = 2, kCache = 3 };
constexpr int kNumKeyClasses = 4;

inline KeyClass classify_key(std::string_view key) {
  if (key.rfind("journal/", 0) == 0) return KeyClass::kJournal;
  if (key.rfind("sinks/", 0) == 0) return KeyClass::kSinks;
  if (key.rfind("cache/", 0) == 0) return KeyClass::kCache;
  return KeyClass::kExchange;
}

inline const char* key_class_name(KeyClass c) {
  switch (c) {
    case KeyClass::kExchange: return "exchange";
    case KeyClass::kJournal: return "journal";
    case KeyClass::kSinks: return "sinks";
    case KeyClass::kCache: return "cache";
  }
  return "exchange";
}

/// One completed span; `job` is the benchmark's job id (0 = none).
struct Span {
  const char* cat = "";
  std::string name;
  std::uint64_t job = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Spans kept in memory and written once, at exit, as Chrome trace
/// JSON. Bounded: spans past the cap are counted, not stored.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap = 1u << 20) : cap_(cap) {}

  void add(const char* cat, std::string name, std::uint64_t job, double start_s,
           double end_s) {
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() >= cap_) {
      ++dropped_;
      return;
    }
    spans_.push_back({cat, std::move(name), job, start_s, end_s});
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  bool write_chrome_json(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
      const double ts = s.start_s * 1e6;
      const double dur = std::max(0.0, s.end_s - s.start_s) * 1e6;
      out << (first ? "" : ",") << "{\"ph\":\"X\",\"cat\":\"" << s.cat << "\",\"name\":\""
          << s.name << "\",\"pid\":1,\"tid\":" << s.job << ",\"ts\":" << ts
          << ",\"dur\":" << dur << ",\"args\":{\"job\":" << s.job << "}}";
      first = false;
    }
    out << "],\"droppedSpans\":" << dropped_ << "}\n";
    return static_cast<bool>(out);
  }

 private:
  const std::size_t cap_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// The job whose stage function last ran on this thread; store calls
/// made from that thread are attributed to it in the trace.
inline thread_local std::uint64_t current_job = 0;

/// Per key class: operation counts, bytes and busy time of one store.
struct StoreClassStats {
  std::size_t puts = 0;
  std::size_t gets = 0;
  double put_bytes = 0.0;
  double get_bytes = 0.0;
  double put_s = 0.0;
  double get_s = 0.0;
  double live_bytes = 0.0;
};

/// ObjectStore decorator that times every put/get on the wrapped store
/// and splits counts, bytes and busy time by key class. Optionally logs
/// each call as a span.
class TimingStore final : public ditto::storage::ObjectStore {
 public:
  explicit TimingStore(ditto::storage::ObjectStore& inner, SpanLog* spans = nullptr)
      : inner_(&inner), spans_(spans) {}

  const char* kind() const override { return inner_->kind(); }
  const ditto::storage::StorageModel& model() const override { return inner_->model(); }

  ditto::Status put(const std::string& key, std::string_view value) override {
    const double t0 = now_s();
    ditto::Status st = inner_->put(key, value);
    const double t1 = now_s();
    const KeyClass c = classify_key(key);
    {
      std::lock_guard<std::mutex> lk(mu_);
      StoreClassStats& s = stats_[static_cast<int>(c)];
      s.put_s += t1 - t0;
      if (st.is_ok()) {
        ++s.puts;
        s.put_bytes += static_cast<double>(value.size());
        auto [it, fresh] = sizes_.try_emplace(key, 0);
        s.live_bytes += static_cast<double>(value.size()) - static_cast<double>(it->second);
        it->second = value.size();
        (void)fresh;
      }
    }
    if (spans_ != nullptr) {
      spans_->add("store", std::string("put.") + key_class_name(c), current_job, t0, t1);
    }
    return st;
  }

  ditto::Result<std::string> get(const std::string& key) const override {
    const double t0 = now_s();
    ditto::Result<std::string> r = inner_->get(key);
    const double t1 = now_s();
    const KeyClass c = classify_key(key);
    {
      std::lock_guard<std::mutex> lk(mu_);
      StoreClassStats& s = stats_[static_cast<int>(c)];
      s.get_s += t1 - t0;
      if (r.ok()) {
        ++s.gets;
        s.get_bytes += static_cast<double>(r->size());
      }
    }
    if (spans_ != nullptr) {
      spans_->add("store", std::string("get.") + key_class_name(c), current_job, t0, t1);
    }
    return r;
  }

  bool contains(const std::string& key) const override { return inner_->contains(key); }

  ditto::Status remove(const std::string& key) override {
    ditto::Status st = inner_->remove(key);
    if (st.is_ok()) {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = sizes_.find(key);
      if (it != sizes_.end()) {
        stats_[static_cast<int>(classify_key(key))].live_bytes -=
            static_cast<double>(it->second);
        sizes_.erase(it);
      }
    }
    return st;
  }

  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  ditto::Bytes used_bytes() const override { return inner_->used_bytes(); }
  ditto::storage::StoreStats stats() const override { return inner_->stats(); }

  StoreClassStats class_stats(KeyClass c) const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_[static_cast<int>(c)];
  }

 private:
  ditto::storage::ObjectStore* inner_;
  SpanLog* spans_;
  mutable std::mutex mu_;
  mutable StoreClassStats stats_[kNumKeyClasses];
  std::map<std::string, std::size_t> sizes_;  ///< live object sizes by key
};

/// Peak resident set of this process in MB (Linux reports KiB).
inline double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Ordered metric list printed as text lines and as the final JSON.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }

  /// Copies `other`'s values onto metrics already present here.
  void overlay(const Report& other) {
    for (const auto& m : other.metrics_) {
      if (has(m.name)) set(m.name, m.value, m.unit);
    }
  }

  bool has(const std::string& name) const {
    for (const auto& m : metrics_) {
      if (m.name == name) return true;
    }
    return false;
  }

  void print_text(std::FILE* f) const {
    for (const auto& m : metrics_) {
      std::fprintf(f, "  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  /// The run's last stdout line. Non-finite values (a percentile over
  /// failed jobs) print as a large finite number; such a run is never
  /// correct anyway.
  std::string json(bool correct, std::size_t attempted, std::size_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics_) {
      char num[64];
      const double v = std::isfinite(m.value) ? m.value : 1e12;
      std::snprintf(num, sizeof num, "%.9g", v);
      out += (first ? "" : ", ");
      out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
