// High-rate service throughput under recurring jobs: the experiment
// behind the recurring-job result cache (ROADMAP item 4, paper §6.5).
//
// An open-loop arrival trace (service/arrival_trace.h) submits TPC-DS
// miniatures to a live JobService at a rate calibrated to ~2.5x the
// cluster's cold-job service rate — sustained overload when every job
// runs cold. `repeat_ratio` of the arrivals are drawn from a small pool
// of recurring templates; with the result cache on, repeats resolve as
// whole-job hits (no engine slots), in-flight dedupe followers, or
// pruned partial hits, which pulls the effective cold-arrival rate back
// under capacity. Reported per configuration: completed jobs/s, p50/p99
// queueing, cache hit rate, and slot-seconds saved — cache on vs off
// over the byte-identical trace.
//
// Pass --quick for the CI regression gate (exit 1 on failure):
//   * every job completes DONE in both runs;
//   * the recurring-heavy trace (60% repeats) achieves strictly higher
//     jobs/s AND strictly lower p99 queueing with the cache on;
//   * a cache-hit job's sink bytes are bit-identical to a cold run of
//     the same submission on a fresh service.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include "bench_common.h"
#include "exec/serde.h"
#include "service/arrival_trace.h"
#include "service/engine_jobs.h"
#include "service/job_service.h"

using namespace ditto;
using namespace ditto::bench;

namespace {

struct Prepared {
  double at_s = 0.0;
  bool repeat = false;
  std::size_t template_id = 0;
  service::JobSubmission submission;
};

/// Builds one submission per arrival before the clock starts, reusing
/// one EngineQueryJob per template (reference answers are the expensive
/// client-side part; a real recurring client amortizes them the same
/// way).
std::vector<Prepared> prepare(const std::vector<service::TraceArrival>& trace,
                              const storage::StorageModel& external) {
  std::map<std::size_t, service::EngineQueryJob> built;
  std::vector<Prepared> out;
  out.reserve(trace.size());
  std::size_t i = 0;
  for (const auto& a : trace) {
    auto it = built.find(a.template_id);
    if (it == built.end()) {
      auto job = service::make_engine_query_job(a.query, a.spec, external);
      if (!job.ok()) {
        std::fprintf(stderr, "job build failed: %s\n", job.status().to_string().c_str());
        std::exit(1);
      }
      it = built.emplace(a.template_id, std::move(*job)).first;
    }
    Prepared p;
    p.at_s = a.at_s;
    p.repeat = a.repeat;
    p.template_id = a.template_id;
    p.submission = it->second.submission;
    p.submission.label = std::string(a.repeat ? "r" : "u") + std::to_string(a.template_id) +
                         "-" + std::to_string(i);
    out.push_back(std::move(p));
    ++i;
  }
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(std::ceil(p * v.size())) - 1);
  return v[idx];
}

struct RunStats {
  std::size_t done = 0;
  std::size_t not_done = 0;
  std::size_t cache_served = 0;   ///< outcomes with from_cache
  std::size_t followers = 0;      ///< outcomes resolved by a dedupe leader
  double jobs_per_s = 0.0;
  double makespan = 0.0;
  double p50_queueing = 0.0;
  double p99_queueing = 0.0;
  double hit_rate = 0.0;
  double slot_seconds_saved = 0.0;
  std::vector<service::JobOutcome> outcomes;
};

/// One open-loop replay of `subs` against a fresh service; cache_bytes
/// 0 = cache and dedupe off.
RunStats run_trace(const std::vector<Prepared>& subs, Bytes cache_bytes,
                   const storage::StorageModel& external) {
  auto cl = cluster::Cluster::uniform(4, 8);
  storage::MemStore store(external, "s3");
  service::ServiceOptions options;
  options.admission.policy = service::AdmissionPolicy::kFifoExclusive;
  options.external = external;
  options.cache_bytes = cache_bytes;
  service::JobService svc(cl, store, options);

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& p : subs) {
    std::this_thread::sleep_until(t0 + std::chrono::duration<double>(p.at_s));
    auto sub = p.submission;
    const auto id = svc.submit(std::move(sub));
    if (!id.ok()) {
      std::fprintf(stderr, "submit failed: %s\n", id.status().to_string().c_str());
      std::exit(1);
    }
  }

  RunStats r;
  r.outcomes = svc.drain();
  std::vector<double> queueing;
  for (const auto& o : r.outcomes) {
    if (o.state != service::JobState::kDone) {
      ++r.not_done;
      continue;
    }
    ++r.done;
    if (o.from_cache) ++r.cache_served;
    if (o.dedup_leader != 0) ++r.followers;
    queueing.push_back(std::max(0.0, o.started - o.submitted));
  }
  const auto s = svc.summary();
  r.makespan = s.makespan;
  if (r.makespan > 0.0) r.jobs_per_s = static_cast<double>(r.done) / r.makespan;
  r.p50_queueing = percentile(queueing, 0.50);
  r.p99_queueing = percentile(queueing, 0.99);
  if (const auto* cache = svc.result_cache()) {
    const auto cs = cache->stats();
    const std::size_t classed = cs.hits + cs.partial_hits + cs.misses;
    if (classed > 0) {
      r.hit_rate = static_cast<double>(cs.hits + cs.partial_hits) /
                   static_cast<double>(classed);
    }
    r.slot_seconds_saved = cs.slot_seconds_saved;
  }
  return r;
}

/// Serialized sink bytes of one submission run cold on a fresh,
/// cache-off service — the bit-identity reference.
std::map<StageId, std::string> cold_sink_bytes(const Prepared& p,
                                               const storage::StorageModel& external) {
  auto cl = cluster::Cluster::uniform(4, 8);
  storage::MemStore store(external, "s3");
  service::ServiceOptions options;
  options.external = external;
  service::JobService svc(cl, store, options);
  auto sub = p.submission;
  sub.label += "-cold";
  const auto id = svc.submit(std::move(sub));
  if (!id.ok()) {
    std::fprintf(stderr, "cold submit failed: %s\n", id.status().to_string().c_str());
    std::exit(1);
  }
  std::map<StageId, std::string> bytes;
  for (const auto& o : svc.drain()) {
    if (o.state != service::JobState::kDone) {
      std::fprintf(stderr, "cold run failed: %s\n", o.error.to_string().c_str());
      std::exit(1);
    }
    for (const auto& [stage, table] : o.sink_outputs) {
      bytes[stage] = *exec::serialize_table(table);
    }
  }
  return bytes;
}

/// Wall-clock seconds one cold template job needs end to end — the
/// calibration the trace rate is derived from, so the benchmark applies
/// the same relative overload on any machine.
double calibrate_cold_seconds(const storage::StorageModel& external,
                              const service::TraceOptions& traceopts) {
  // Oversample (mean ~100 arrivals) so the Poisson draw cannot come up
  // empty, then keep only the first arrival.
  service::TraceOptions one = traceopts;
  one.duration_s = 2.0;
  one.rate_hz = 50.0;
  one.repeat_ratio = 1.0;
  auto trace = service::generate_trace(one);
  if (!trace.ok() || trace->empty()) {
    std::fprintf(stderr, "calibration trace failed\n");
    std::exit(1);
  }
  trace->resize(1);
  (*trace)[0].at_s = 0.0;
  const auto subs = prepare(*trace, external);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = run_trace(subs, 0, external);
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (r.done != 1) {
    std::fprintf(stderr, "calibration job did not finish\n");
    std::exit(1);
  }
  return std::max(1e-3, wall);
}

void print_row(const char* name, const RunStats& r) {
  std::printf("  %-12s %6zu %8.2f %9.3f %9.3f %7.0f%% %10.2f %6zu %6zu\n", name, r.done,
              r.jobs_per_s, r.p50_queueing, r.p99_queueing, r.hit_rate * 100.0,
              r.slot_seconds_saved, r.cache_served, r.followers);
}

constexpr Bytes kCacheBytes = 64ULL << 20;

int run_quick_check() {
  const auto& external = storage::s3_model();
  service::TraceOptions opts;
  opts.shape = service::TraceShape::kUniform;
  opts.duration_s = 3.0;
  opts.repeat_ratio = 0.6;
  opts.distinct_jobs = 4;
  opts.fact_rows = 12000;
  opts.num_orders = 3000;
  opts.seed = 7;

  const double cold = calibrate_cold_seconds(external, opts);
  opts.rate_hz = std::clamp(2.5 / cold, 4.0, 48.0);
  std::printf("calibration: cold job %.3f s -> offered rate %.1f Hz (~2.5x capacity)\n", cold,
              opts.rate_hz);

  auto trace = service::generate_trace(opts);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace generation failed: %s\n", trace.status().to_string().c_str());
    return 1;
  }
  const auto subs = prepare(*trace, external);
  std::size_t repeats = 0;
  for (const auto& p : subs) repeats += p.repeat ? 1 : 0;
  std::printf("trace: %zu arrivals over %.1f s, %zu repeats (%.0f%%)\n", subs.size(),
              opts.duration_s, repeats,
              subs.empty() ? 0.0 : 100.0 * static_cast<double>(repeats) / subs.size());

  const RunStats off = run_trace(subs, 0, external);
  const RunStats on = run_trace(subs, kCacheBytes, external);

  std::printf("  %-12s %6s %8s %9s %9s %8s %10s %6s %6s\n", "config", "done", "jobs/s",
              "p50_q(s)", "p99_q(s)", "hitrate", "slotsec_sv", "cached", "dedup");
  print_row("cache-off", off);
  print_row("cache-on", on);

  bool ok = true;
  if (off.not_done + on.not_done != 0) {
    std::fprintf(stderr, "REGRESSION: %zu job(s) did not complete DONE\n",
                 off.not_done + on.not_done);
    ok = false;
  }
  if (on.cache_served == 0) {
    std::fprintf(stderr, "REGRESSION: cache-on run served no job from the cache\n");
    ok = false;
  }
  if (on.jobs_per_s <= off.jobs_per_s) {
    std::fprintf(stderr, "REGRESSION: cache-on jobs/s %.2f not above cache-off %.2f\n",
                 on.jobs_per_s, off.jobs_per_s);
    ok = false;
  }
  if (on.p99_queueing >= off.p99_queueing) {
    std::fprintf(stderr, "REGRESSION: cache-on p99 queueing %.3f s not below cache-off %.3f s\n",
                 on.p99_queueing, off.p99_queueing);
    ok = false;
  }

  // Bit-identity: a from_cache outcome must carry the exact sink bytes
  // a cold run of the same submission produces.
  const service::JobOutcome* hit = nullptr;
  for (const auto& o : on.outcomes) {
    if (o.from_cache && o.dedup_leader == 0 && o.state == service::JobState::kDone) {
      hit = &o;
      break;
    }
  }
  if (hit == nullptr) {
    std::fprintf(stderr, "REGRESSION: no whole-job cache hit to check bit-identity on\n");
    ok = false;
  } else {
    const Prepared* src = nullptr;
    for (const auto& p : subs) {
      if (p.submission.label == hit->label) src = &p;
    }
    if (src == nullptr) {
      std::fprintf(stderr, "REGRESSION: cache-hit label '%s' missing from trace\n",
                   hit->label.c_str());
      std::fprintf(stderr, "quick check FAILED\n");
      return 1;
    }
    const auto cold_bytes = cold_sink_bytes(*src, external);
    for (const auto& [stage, table] : hit->sink_outputs) {
      const std::string got = *exec::serialize_table(table);
      const auto want = cold_bytes.find(stage);
      if (want == cold_bytes.end() || want->second != got) {
        std::fprintf(stderr,
                     "REGRESSION: cache-hit sink stage %u bytes differ from cold run\n", stage);
        ok = false;
      }
    }
    if (ok) {
      std::printf("bit-identity: cache-hit '%s' sinks byte-identical to cold run\n",
                  hit->label.c_str());
    }
  }

  std::fprintf(stderr, "%s\n", ok ? "quick check PASSED" : "quick check FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return run_quick_check();
  }

  const auto& external = storage::s3_model();
  service::TraceOptions base;
  base.duration_s = 4.0;
  base.distinct_jobs = 4;
  base.fact_rows = 12000;
  base.num_orders = 3000;
  base.seed = 7;
  const double cold = calibrate_cold_seconds(external, base);
  base.rate_hz = std::clamp(2.5 / cold, 4.0, 48.0);

  print_header("Service throughput under recurring jobs (open loop, ~2.5x overload)");
  std::printf("calibration: cold job %.3f s -> offered rate %.1f Hz\n", cold, base.rate_hz);

  for (const auto shape : {service::TraceShape::kUniform, service::TraceShape::kBursty,
                           service::TraceShape::kDiurnal}) {
    for (const double repeat : {0.0, 0.5, 0.8}) {
      service::TraceOptions opts = base;
      opts.shape = shape;
      opts.repeat_ratio = repeat;
      auto trace = service::generate_trace(opts);
      if (!trace.ok()) {
        std::fprintf(stderr, "trace failed: %s\n", trace.status().to_string().c_str());
        return 1;
      }
      const auto subs = prepare(*trace, external);
      const RunStats off = run_trace(subs, 0, external);
      const RunStats on = run_trace(subs, kCacheBytes, external);
      std::printf("\n--- shape=%s repeat=%.0f%% (%zu arrivals) ---\n",
                  service::trace_shape_name(shape), repeat * 100.0, subs.size());
      std::printf("  %-12s %6s %8s %9s %9s %8s %10s %6s %6s\n", "config", "done", "jobs/s",
                  "p50_q(s)", "p99_q(s)", "hitrate", "slotsec_sv", "cached", "dedup");
      print_row("cache-off", off);
      print_row("cache-on", on);
      if (off.jobs_per_s > 0.0) {
        std::printf("  => cache speedup %.2fx jobs/s, p99 queueing %.2fx lower\n",
                    on.jobs_per_s / off.jobs_per_s,
                    on.p99_queueing > 0.0 ? off.p99_queueing / on.p99_queueing : 0.0);
      }
    }
  }
  return 0;
}
