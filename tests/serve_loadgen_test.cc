// Load generator (serve/loadgen): wire traffic must be byte-identical under
// any producer thread count, the full loadgen -> collector -> seal round
// trip must recover the population's frequencies, and the multidim streams
// must ingest losslessly.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/sampling.h"
#include "data/synthetic.h"
#include "fo/factory.h"
#include "serve/loadgen.h"

namespace ldpr::serve {
namespace {

TEST(ServeLoadGenTest, ScalarStreamIsThreadCountIndependent) {
  const int k = 40;
  auto oracle = fo::MakeOracle(fo::Protocol::kSs, k, 1.2);
  Rng vrng(2);
  CategoricalSampler sampler(ZipfDistribution(k, 1.3));
  std::vector<int> values(3000);
  for (int& v : values) v = sampler.Sample(vrng);

  EncodedStream reference;
  for (int threads : {1, 2, 5}) {
    sim::Options options;
    options.threads = threads;
    Rng root(123);
    EncodedStream stream = EncodeScalarLoad(*oracle, values, root, options);
    EXPECT_EQ(stream.count, 3000);
    EXPECT_EQ(stream.bytes.size(), 3000 * stream.frame_bytes);
    if (threads == 1) {
      reference = std::move(stream);
      continue;
    }
    EXPECT_EQ(stream.bytes, reference.bytes) << "threads=" << threads;
  }
}

TEST(ServeLoadGenTest, MultidimFramesAreThreadCountIndependent) {
  const data::Dataset ds = data::NurseryLike(3, 0.02);
  multidim::RsFd rsfd(multidim::RsFdVariant::kGrr, ds.domain_sizes(), 2.0);
  EncodedFrames reference;
  for (int threads : {1, 3}) {
    sim::Options options;
    options.threads = threads;
    Rng root(55);
    EncodedFrames frames = EncodeRsFdLoad(rsfd, ds, root, options);
    EXPECT_EQ(frames.count(), ds.n());
    if (threads == 1) {
      reference = std::move(frames);
      continue;
    }
    EXPECT_EQ(frames.bytes, reference.bytes);
    EXPECT_EQ(frames.offsets, reference.offsets);
  }
}

// End to end at a generous budget: loadgen traffic sealed by the collector
// recovers the true frequencies.
TEST(ServeLoadGenTest, RoundTripRecoversFrequencies) {
  const int k = 12;
  const int n = 30000;
  auto oracle = fo::MakeOracle(fo::Protocol::kOue, k, 4.0);
  Rng vrng(8);
  const std::vector<double> truth = ZipfDistribution(k, 1.5);
  CategoricalSampler sampler(truth);
  std::vector<int> values(n);
  std::vector<long long> histogram(k, 0);
  for (int& v : values) {
    v = sampler.Sample(vrng);
    ++histogram[v];
  }

  Rng root(21);
  const EncodedStream stream = EncodeScalarLoad(*oracle, values, root);
  LongitudinalCollector manager(
      *oracle, LongitudinalOptions::FromCollector({.lanes = 3}));
  manager.OpenEpoch();
  EXPECT_EQ(IngestStream(manager.collector(), stream, 2), n);
  const EstimateSnapshot& snapshot = manager.Seal();
  ASSERT_EQ(static_cast<int>(snapshot.frequencies.size()), k);
  for (int v = 0; v < k; ++v) {
    const double empirical = static_cast<double>(histogram[v]) / n;
    EXPECT_NEAR(snapshot.frequencies[v], empirical, 0.02) << "value " << v;
  }
}

TEST(ServeLoadGenTest, MultidimRoundTripIngestsEveryFrame) {
  const data::Dataset ds = data::NurseryLike(5, 0.05);  // n = 647
  multidim::Smp smp(fo::Protocol::kGrr, ds.domain_sizes(), 3.0);
  Rng root(17);
  const EncodedFrames frames = EncodeSmpLoad(smp, ds, root);
  MultidimCollector collector(smp, CollectorOptions{.lanes = 2});
  EXPECT_EQ(IngestFrames(collector, frames, 2), ds.n());
  const MultidimSnapshot snapshot = collector.Seal();
  EXPECT_EQ(snapshot.n, ds.n());
  EXPECT_EQ(snapshot.stats.rejected, 0);
  EXPECT_EQ(snapshot.stats.bytes,
            static_cast<long long>(frames.bytes.size()));
  ASSERT_EQ(static_cast<int>(snapshot.estimates.size()), ds.d());
}

}  // namespace
}  // namespace ldpr::serve
