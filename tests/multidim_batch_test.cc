// Exactness of the RS+FD count-based estimator: EstimateFromSupportCounts
// over SupportCounts must be bit-identical to Estimate(reports). The
// streamed multidim path (serve::MultidimCollector) is pinned against
// Estimate(reports) in serve_multidim_test.

#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "multidim/rsfd.h"

namespace ldpr::multidim {
namespace {

constexpr int kUsers = 400;
const std::vector<int> kDomains = {7, 3, 5, 9};

std::vector<std::vector<int>> TestRecords() {
  std::vector<std::vector<int>> records(kUsers);
  for (int i = 0; i < kUsers; ++i) {
    records[i].resize(kDomains.size());
    for (std::size_t j = 0; j < kDomains.size(); ++j) {
      records[i][j] = static_cast<int>((i * (j + 3) + i / 2) % kDomains[j]);
    }
  }
  return records;
}

TEST(RsFdBatchTest, EstimateFromSupportCountsMatchesEstimate) {
  RsFd rsfd(RsFdVariant::kOueR, kDomains, 1.0);
  Rng rng(3);
  std::vector<MultidimReport> reports;
  for (const auto& record : TestRecords()) {
    reports.push_back(rsfd.RandomizeUser(record, rng));
  }
  EXPECT_EQ(rsfd.Estimate(reports),
            rsfd.EstimateFromSupportCounts(
                rsfd.SupportCounts(reports),
                static_cast<long long>(reports.size())));
}

}  // namespace
}  // namespace ldpr::multidim
