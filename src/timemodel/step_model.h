// The step-based execution time model (paper §4.1, Eq. 1–2).
//
// Each step of a stage runs in  t(d) = alpha / d + beta  where d is the
// stage's degree of parallelism: alpha/d is the parallelized portion and
// beta the inherent per-task overhead. A stage's time is the sum of its
// steps' times, so it also has the form  alpha_s / d + beta_s.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ditto {

struct StepModel {
  double alpha = 0.0;
  double beta = 0.0;

  /// Predicted step time at DoP `d` (d >= 1).
  double eval(int d) const {
    assert(d >= 1);
    return alpha / static_cast<double>(d) + beta;
  }

  StepModel operator+(const StepModel& o) const { return {alpha + o.alpha, beta + o.beta}; }
  StepModel& operator+=(const StepModel& o) {
    alpha += o.alpha;
    beta += o.beta;
    return *this;
  }
};

/// Merged "virtual stage" parameters from Algorithm 1:
///   intra-path (parent-child):  alpha' = (sqrt(ai) + sqrt(aj))^2,  beta' = bi + bj
///   inter-path (siblings):      alpha' = ai + aj,                  beta' = max(bi, bj)
/// Inline: the scheduler's DoP-ratio merge (dop_ratio.cpp) calls these
/// once per merge, inside its grouping search.
inline StepModel merge_intra_path(const StepModel& a, const StepModel& b) {
  const double s = std::sqrt(a.alpha) + std::sqrt(b.alpha);
  return {s * s, a.beta + b.beta};
}

inline StepModel merge_inter_path(const StepModel& a, const StepModel& b) {
  return {a.alpha + b.alpha, std::max(a.beta, b.beta)};
}

}  // namespace ditto
