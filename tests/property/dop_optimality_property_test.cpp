// Property tests for the analytical core: numerically verify the
// optimality claims of Appendix A on randomized instances.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "scheduler/dop_ratio.h"
#include "timemodel/predictor.h"

namespace ditto::scheduler {
namespace {

/// Chain JCT = sum alpha_i/d_i (+ const beta) for continuous d.
double chain_time(const std::vector<double>& alpha, const std::vector<double>& d) {
  double t = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) t += alpha[i] / d[i];
  return t;
}

/// Sibling completion = max alpha_i/d_i.
double sibling_time(const std::vector<double>& alpha, const std::vector<double>& d) {
  double t = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) t = std::max(t, alpha[i] / d[i]);
  return t;
}

/// Random split of C into n positive parts.
std::vector<double> random_split(Rng& rng, std::size_t n, double c) {
  std::vector<double> parts(n);
  double total = 0.0;
  for (double& p : parts) {
    p = rng.uniform(0.05, 1.0);
    total += p;
  }
  for (double& p : parts) p *= c / total;
  return parts;
}

class IntraPathProperty : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, IntraPathProperty, ::testing::Range(0, 20));

TEST_P(IntraPathProperty, SqrtRatioBeatsRandomSplits) {
  // Appendix A.1: d_i proportional to sqrt(alpha_i) minimizes the chain
  // completion time. No random allocation may beat it.
  Rng rng(GetParam() + 1);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  const double c = rng.uniform(20.0, 200.0);
  std::vector<double> alpha(n);
  for (double& a : alpha) a = rng.uniform(1.0, 100.0);

  std::vector<double> opt(n);
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) norm += std::sqrt(alpha[i]);
  for (std::size_t i = 0; i < n; ++i) opt[i] = std::sqrt(alpha[i]) / norm * c;
  const double best = chain_time(alpha, opt);

  for (int trial = 0; trial < 200; ++trial) {
    const auto d = random_split(rng, n, c);
    EXPECT_GE(chain_time(alpha, d), best - 1e-9);
  }
}

class InterPathProperty : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, InterPathProperty, ::testing::Range(0, 20));

TEST_P(InterPathProperty, BalancedSplitBeatsRandomSplits) {
  // Appendix A.2: d_i proportional to alpha_i balances sibling stages
  // and minimizes the max completion time.
  Rng rng(GetParam() + 100);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  const double c = rng.uniform(20.0, 200.0);
  std::vector<double> alpha(n);
  for (double& a : alpha) a = rng.uniform(1.0, 100.0);

  const double total_alpha = std::accumulate(alpha.begin(), alpha.end(), 0.0);
  std::vector<double> opt(n);
  for (std::size_t i = 0; i < n; ++i) opt[i] = alpha[i] / total_alpha * c;
  const double best = sibling_time(alpha, opt);
  // Balanced: every stage finishes simultaneously.
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(alpha[i] / opt[i], best, 1e-9);

  for (int trial = 0; trial < 200; ++trial) {
    const auto d = random_split(rng, n, c);
    EXPECT_GE(sibling_time(alpha, d), best - 1e-9);
  }
}

class MergePreservesOptimum : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, MergePreservesOptimum, ::testing::Range(0, 10));

TEST_P(MergePreservesOptimum, VirtualStageTimeEqualsPairOptimum) {
  // Eq. 3/4: the merged virtual stage evaluated at d equals the pair's
  // completion at their optimal internal split.
  Rng rng(GetParam() + 200);
  const double a1 = rng.uniform(1.0, 50.0), a2 = rng.uniform(1.0, 50.0);
  const double d = rng.uniform(4.0, 64.0);

  // Intra-path.
  const double s1 = std::sqrt(a1), s2 = std::sqrt(a2);
  const double intra_alpha = (s1 + s2) * (s1 + s2);
  const double d1 = s1 / (s1 + s2) * d, d2 = s2 / (s1 + s2) * d;
  EXPECT_NEAR(intra_alpha / d, a1 / d1 + a2 / d2, 1e-9);

  // Inter-path.
  const double inter_alpha = a1 + a2;
  const double e1 = a1 / (a1 + a2) * d, e2 = a2 / (a1 + a2) * d;
  EXPECT_NEAR(inter_alpha / d, std::max(a1 / e1, a2 / e2), 1e-9);
}

class ChainComputerOptimality : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ChainComputerOptimality, ::testing::Range(0, 10));

TEST_P(ChainComputerOptimality, ComputerMatchesClosedFormOnChains) {
  // The bottom-up DoP computer must reproduce the closed-form sqrt
  // allocation on random chains.
  Rng rng(GetParam() + 300);
  const int n = 2 + static_cast<int>(rng.uniform_int(0, 6));
  JobDag dag("chain");
  for (int i = 0; i < n; ++i) dag.add_stage("s" + std::to_string(i));
  for (int i = 0; i + 1 < n; ++i) ASSERT_TRUE(dag.add_edge(i, i + 1).is_ok());
  std::vector<double> alpha(n);
  for (int i = 0; i < n; ++i) {
    alpha[i] = rng.uniform(1.0, 100.0);
    dag.stage(i).add_step({StepKind::kCompute, kNoStage, alpha[i], 0.0, false});
  }
  const int c = 200;
  const ExecTimePredictor pred(dag);
  const auto result = optimal_dops(dag, merge_order(dag),
                                   pred.stage_models(EdgeFlags(dag.num_edges(), 0)),
                                   Objective::kJct, c);
  ASSERT_TRUE(result.ok());

  double norm = 0.0;
  for (int i = 0; i < n; ++i) norm += std::sqrt(alpha[i]);
  for (int i = 0; i < n; ++i) {
    const double expected = std::sqrt(alpha[i]) / norm * c;
    EXPECT_NEAR(result->continuous[i], expected, expected * 1e-6);
  }
}

}  // namespace
}  // namespace ditto::scheduler
