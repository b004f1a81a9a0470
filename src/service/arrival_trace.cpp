#include "service/arrival_trace.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace ditto::service {
namespace {

/// Instantaneous rate multiplier at time t for the chosen shape; the
/// mean over the trace stays ~1 so rate_hz keeps its meaning.
double shape_factor(const TraceOptions& o, double t) {
  switch (o.shape) {
    case TraceShape::kUniform:
      return 1.0;
    case TraceShape::kBursty: {
      // Duty-cycled over 1-second periods: inside the duty window the
      // rate is burst_factor x base; outside it is scaled down so the
      // period mean is 1.
      const double phase = t - std::floor(t);
      const double duty = std::min(1.0, std::max(1e-3, o.burst_duty));
      const double idle = std::max(0.0, (1.0 - o.burst_factor * duty) / (1.0 - duty));
      return phase < duty ? o.burst_factor : idle;
    }
    case TraceShape::kDiurnal: {
      // One sinusoidal "day" across the trace: trough at the ends,
      // peak mid-trace, mean 1.
      const double phase = t / o.duration_s;
      return 1.0 - std::cos(2.0 * 3.14159265358979323846 * phase) * 0.9;
    }
  }
  return 1.0;
}

}  // namespace

const char* trace_shape_name(TraceShape s) {
  switch (s) {
    case TraceShape::kUniform: return "uniform";
    case TraceShape::kBursty: return "bursty";
    case TraceShape::kDiurnal: return "diurnal";
  }
  return "unknown";
}

Result<std::vector<TraceArrival>> generate_trace(const TraceOptions& options) {
  if (options.duration_s <= 0.0) {
    return Status::invalid_argument("trace duration must be > 0");
  }
  if (options.rate_hz <= 0.0) {
    return Status::invalid_argument("trace rate must be > 0");
  }
  if (options.repeat_ratio < 0.0 || options.repeat_ratio > 1.0) {
    return Status::invalid_argument("repeat_ratio must be in [0, 1]");
  }
  if (options.repeat_ratio > 0.0 && options.distinct_jobs == 0) {
    return Status::invalid_argument("repeat_ratio > 0 needs a non-empty template pool");
  }
  if (options.shape == TraceShape::kBursty && options.burst_factor < 1.0) {
    return Status::invalid_argument("burst_factor must be >= 1");
  }

  Rng rng(options.seed);
  const std::vector<workload::EngineQuery>& queries = workload::engine_queries();
  const auto num_queries = static_cast<std::int64_t>(queries.size());

  // The recurring pool: each template is one (query, spec) pair with a
  // pool-stable seed, so every repeat of template k is byte-identical.
  std::vector<TraceArrival> pool(options.distinct_jobs);
  for (std::size_t k = 0; k < options.distinct_jobs; ++k) {
    pool[k].query = queries[k % queries.size()].name;
    pool[k].spec.fact_rows = static_cast<std::size_t>(options.fact_rows);
    pool[k].spec.num_orders = options.num_orders;
    pool[k].spec.seed = options.seed * 1000003ULL + k;
    pool[k].repeat = true;
    pool[k].template_id = k;
  }

  // Thinned Poisson process: draw candidate gaps at the peak rate and
  // accept each candidate with probability factor/peak — an exact
  // sampler for an inhomogeneous Poisson process.
  double peak = 1.0;
  for (double t = 0.0; t < options.duration_s; t += options.duration_s / 256.0) {
    peak = std::max(peak, shape_factor(options, t));
  }
  const double peak_rate = options.rate_hz * peak;

  std::vector<TraceArrival> out;
  std::size_t next_unique = options.distinct_jobs;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(peak_rate);
    if (t >= options.duration_s) break;
    if (!rng.coin(shape_factor(options, t) / peak)) continue;
    TraceArrival a;
    if (rng.coin(options.repeat_ratio)) {
      a = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(options.distinct_jobs) - 1))];
    } else {
      // Fresh job: unique seed, guaranteed cold for the cache.
      a.query = queries[static_cast<std::size_t>(rng.uniform_int(0, num_queries - 1))].name;
      a.spec.fact_rows = static_cast<std::size_t>(options.fact_rows);
      a.spec.num_orders = options.num_orders;
      a.spec.seed = options.seed * 2000003ULL + next_unique;
      a.repeat = false;
      a.template_id = next_unique++;
    }
    a.at_s = t;
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace ditto::service
