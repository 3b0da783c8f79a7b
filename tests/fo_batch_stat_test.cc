// Statistical validation of the closed-form batched aggregation (satellite 2
// of the batched randomize/aggregate issue): for each protocol at n = 100k
// users, the batched estimator must be unbiased and its empirical variance
// must match the analytic Eq. 7-style variance from
// FrequencyOracle::EstimatorVariance. The closed-form path draws O(k) RNG
// values per run instead of O(n), which is what makes a few hundred
// repetitions at n = 100k affordable inside a unit test.

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/sampling.h"
#include "fo/factory.h"
#include "fo/grr.h"

namespace ldpr::fo {
namespace {

constexpr int kDomain = 16;
constexpr double kEpsilon = 1.0;
constexpr long long kUsers = 100000;
constexpr int kRuns = 240;

/// Skewed true histogram over kUsers users (sums exactly to kUsers).
std::vector<long long> TrueHistogram() {
  const std::vector<double> f = ZipfDistribution(kDomain, 1.3);
  std::vector<long long> hist(kDomain, 0);
  long long assigned = 0;
  for (int v = 0; v + 1 < kDomain; ++v) {
    hist[v] = static_cast<long long>(f[v] * kUsers);
    assigned += hist[v];
  }
  hist[kDomain - 1] = kUsers - assigned;
  return hist;
}

std::vector<double> TrueFrequencies(const std::vector<long long>& hist) {
  std::vector<double> f(hist.size());
  for (std::size_t v = 0; v < hist.size(); ++v) {
    f[v] = static_cast<double>(hist[v]) / kUsers;
  }
  return f;
}

class BatchStatTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(BatchStatTest, ClosedFormEstimatorIsUnbiasedAndMatchesVariance) {
  auto oracle = MakeOracle(GetParam(), kDomain, kEpsilon);
  const std::vector<long long> hist = TrueHistogram();
  const std::vector<double> truth = TrueFrequencies(hist);

  Rng root(20260725);
  std::vector<std::vector<double>> runs(kRuns);
  for (int r = 0; r < kRuns; ++r) {
    Rng rng = root.Fork(r);
    auto agg = oracle->MakeAggregator();
    agg->AccumulateHistogram(hist, rng);
    ASSERT_EQ(agg->n(), kUsers);
    runs[r] = agg->Estimate();
  }

  for (int v = 0; v < kDomain; ++v) {
    const double analytic_var = oracle->EstimatorVariance(kUsers, truth[v]);
    const double analytic_sd = std::sqrt(analytic_var);

    double mean = 0.0;
    for (const auto& run : runs) mean += run[v];
    mean /= kRuns;

    // Unbiasedness: the mean of kRuns estimates has sd = analytic_sd /
    // sqrt(kRuns); 4.5 sigma keeps the false-failure rate negligible across
    // the 5 protocols x 16 cells of this suite.
    EXPECT_NEAR(mean, truth[v], 4.5 * analytic_sd / std::sqrt(kRuns))
        << ProtocolName(GetParam()) << " biased at value " << v;

    double var = 0.0;
    for (const auto& run : runs) {
      var += (run[v] - mean) * (run[v] - mean);
    }
    var /= (kRuns - 1);

    // Variance match: s^2 / sigma^2 concentrates around 1 with sd about
    // sqrt(2 / (kRuns - 1)) ~ 0.09 for near-normal estimates.
    EXPECT_GT(var, 0.55 * analytic_var)
        << ProtocolName(GetParam()) << " variance too small at value " << v;
    EXPECT_LT(var, 1.55 * analytic_var)
        << ProtocolName(GetParam()) << " variance too large at value " << v;
  }
}

TEST_P(BatchStatTest, ClosedFormChiSquaredResidualsAreCalibrated) {
  // Standardized residuals z = (est - f) / sd pooled over runs and cells
  // should behave like chi-squared draws: their squared sum over R runs has
  // mean R and sd sqrt(2R) when the closed-form path reproduces both the
  // location and the scale of the scalar estimator's distribution.
  auto oracle = MakeOracle(GetParam(), kDomain, kEpsilon);
  const std::vector<long long> hist = TrueHistogram();
  const std::vector<double> truth = TrueFrequencies(hist);

  Rng root(77007);
  const int probe_values[] = {0, kDomain / 2, kDomain - 1};
  for (int v : probe_values) {
    const double sd =
        std::sqrt(oracle->EstimatorVariance(kUsers, truth[v]));
    double chi2 = 0.0;
    for (int r = 0; r < kRuns; ++r) {
      Rng rng = root.Split();
      auto agg = oracle->MakeAggregator();
      agg->AccumulateHistogram(hist, rng);
      const double z = (agg->Estimate()[v] - truth[v]) / sd;
      chi2 += z * z;
    }
    EXPECT_NEAR(chi2, kRuns, 5.5 * std::sqrt(2.0 * kRuns))
        << ProtocolName(GetParam()) << " miscalibrated at value " << v;
  }
}

TEST_P(BatchStatTest, StreamingAndClosedFormAgreeInDistribution) {
  // Cheap two-sample check: means of the two paths across a few runs land
  // within a joint tolerance derived from the analytic variance.
  auto oracle = MakeOracle(GetParam(), kDomain, kEpsilon);
  const std::vector<long long> hist = TrueHistogram();
  const std::vector<double> truth = TrueFrequencies(hist);
  std::vector<int> values;
  values.reserve(kUsers);
  for (int v = 0; v < kDomain; ++v) {
    values.insert(values.end(), hist[v], v);
  }

  constexpr int kPairRuns = 8;
  Rng root(431);
  const int probe = 1;  // high-frequency cell
  double streaming_mean = 0.0, closed_mean = 0.0;
  for (int r = 0; r < kPairRuns; ++r) {
    Rng rng_a = root.Fork(2 * r);
    auto streaming = oracle->MakeAggregator();
    for (int v : values) streaming->Accumulate(oracle->Randomize(v, rng_a));
    streaming_mean += streaming->Estimate()[probe];

    Rng rng_b = root.Fork(2 * r + 1);
    auto closed = oracle->MakeAggregator();
    closed->AccumulateHistogram(hist, rng_b);
    closed_mean += closed->Estimate()[probe];
  }
  streaming_mean /= kPairRuns;
  closed_mean /= kPairRuns;
  const double sd = std::sqrt(oracle->EstimatorVariance(kUsers, truth[probe]) /
                              kPairRuns);
  EXPECT_NEAR(streaming_mean, closed_mean, 6.0 * sd);
}

TEST(BatchStatGrrTest, ClosedFormPreservesReportTotal) {
  // GRR's multinomial histogram path is jointly exact: every user reports
  // exactly one value, so the counts must sum to n.
  Grr grr(kDomain, kEpsilon);
  Rng rng(5);
  auto agg = grr.MakeAggregator();
  agg->AccumulateHistogram(TrueHistogram(), rng);
  long long total = 0;
  for (long long c : agg->counts()) total += c;
  EXPECT_EQ(total, kUsers);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, BatchStatTest,
                         ::testing::ValuesIn(AllProtocols()),
                         [](const auto& info) {
                           return std::string(ProtocolName(info.param));
                         });

}  // namespace
}  // namespace ldpr::fo
