#include "fo/consistency.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/metrics.h"
#include "core/sampling.h"
#include "fo/factory.h"

namespace ldpr::fo {
namespace {

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Randomizes every value in order and estimates from the accumulated
/// reports (Randomize + Aggregator::Accumulate).
std::vector<double> RandomizeAndEstimate(const FrequencyOracle& oracle,
                                         const std::vector<int>& values,
                                         Rng& rng) {
  auto agg = oracle.MakeAggregator();
  for (int v : values) agg->Accumulate(oracle.Randomize(v, rng));
  return agg->Estimate();
}

TEST(NormSubTest, AlreadyConsistentIsUnchanged) {
  std::vector<double> est{0.5, 0.3, 0.2};
  auto out = NormSub(est);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(out[i], est[i], 1e-12);
}

TEST(NormSubTest, NegativesZeroedAndShiftApplied) {
  // sum = 1.0 but one entry negative: the projection zeroes it and removes
  // the shift from the survivors.
  std::vector<double> est{0.7, 0.5, -0.2};
  auto out = NormSub(est);
  EXPECT_NEAR(Sum(out), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
  EXPECT_GT(out[0], out[1]);
  for (double v : out) EXPECT_GE(v, 0.0);
}

TEST(NormSubTest, IsExactL2SimplexProjection) {
  // Brute-force check: no feasible point within a small perturbation grid is
  // closer in L2 than the NormSub output.
  std::vector<double> est{0.9, 0.4, -0.1, -0.2};
  auto out = NormSub(est);
  EXPECT_NEAR(Sum(out), 1.0, 1e-12);
  auto l2 = [&](const std::vector<double>& x) {
    double acc = 0.0;
    for (int i = 0; i < 4; ++i) acc += (x[i] - est[i]) * (x[i] - est[i]);
    return acc;
  };
  const double base = l2(out);
  // Perturb within the simplex (move mass between two positive coordinates).
  for (double step : {0.01, 0.05}) {
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        if (a == b) continue;
        std::vector<double> probe = out;
        if (probe[a] < step) continue;
        probe[a] -= step;
        probe[b] += step;
        EXPECT_GE(l2(probe), base - 1e-12);
      }
    }
  }
}

TEST(NormSubTest, AllNegativeExceptOne) {
  std::vector<double> est{-0.5, 2.0, -0.3};
  auto out = NormSub(est);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
  EXPECT_NEAR(out[1], 1.0, 1e-12);
}

TEST(MakeConsistentTest, AllMethodsProduceDistributions) {
  std::vector<double> est{0.6, -0.1, 0.3, 0.4, -0.05};
  for (ConsistencyMethod m :
       {ConsistencyMethod::kClampRenorm, ConsistencyMethod::kNormSub,
        ConsistencyMethod::kBaseCut}) {
    auto out = MakeConsistent(est, m, 0.05);
    EXPECT_NEAR(Sum(out), 1.0, 1e-9) << ConsistencyMethodName(m);
    for (double v : out) EXPECT_GE(v, 0.0) << ConsistencyMethodName(m);
  }
}

TEST(MakeConsistentTest, BaseCutDropsSmallEstimates) {
  std::vector<double> est{0.9, 0.02, 0.08};
  auto out = MakeConsistent(est, ConsistencyMethod::kBaseCut, 0.05);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_GT(out[0], 0.0);
  EXPECT_GT(out[2], 0.0);
}

TEST(MakeConsistentTest, BaseCutDegenerateFallsBack) {
  std::vector<double> est{0.01, 0.02};
  auto out = MakeConsistent(est, ConsistencyMethod::kBaseCut, 0.5);
  EXPECT_NEAR(Sum(out), 1.0, 1e-9);
}

TEST(MakeConsistentTest, Validation) {
  EXPECT_THROW(MakeConsistent({}, ConsistencyMethod::kNormSub),
               InvalidArgumentError);
  EXPECT_THROW(NormSub({}), InvalidArgumentError);
}

TEST(ConsistencyTest, NormSubImprovesLdpEstimateMse) {
  // End-to-end: post-processing a noisy OUE estimate with NormSub should
  // (weakly) reduce the MSE against the truth — projection onto a convex
  // set containing the truth never moves the estimate away from it.
  const int k = 32;
  Rng rng(1);
  CategoricalSampler sampler(ZipfDistribution(k, 1.5));
  std::vector<int> values(4000);
  for (auto& v : values) v = sampler.Sample(rng);
  std::vector<double> truth(k, 0.0);
  for (int v : values) truth[v] += 1.0 / values.size();

  auto oracle = MakeOracle(Protocol::kOue, k, 0.5);
  double raw_total = 0.0, proj_total = 0.0;
  for (int run = 0; run < 10; ++run) {
    auto raw = RandomizeAndEstimate(*oracle, values, rng);
    raw_total += Mse(truth, raw);
    proj_total += Mse(truth, NormSub(raw));
  }
  EXPECT_LT(proj_total, raw_total);
}

}  // namespace
}  // namespace ldpr::fo
