// Exactness of the batched collection pipeline: for every protocol, the
// batched paths — BatchRandomize into an Aggregator sink, and wire images of
// the randomized reports decoded by AccumulateWireBlock (the path every
// served report takes) — must be bit-identical to the scalar Randomize +
// AccumulateSupport loop for a fixed seed, including the RNG stream they
// leave behind; and merging K shard aggregators must equal one aggregator
// over the concatenated input. Each check runs at domain sizes on both sides
// of the wire images' byte and 64-bit word boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/rng.h"
#include "fo/bitslice.h"
#include "fo/factory.h"
#include "fo/wire.h"

namespace ldpr::fo {
namespace {

constexpr std::uint64_t kSeed = 0xBA7C4ED5EEDULL;
constexpr int kDomains[] = {23, 2, 64, 65, 1000};
constexpr double kEpsilon = 1.2;
constexpr int kUsers = 600;

std::vector<int> TestValues(int n, int k) {
  // Deterministic skewed mix covering the whole domain.
  std::vector<int> values(n);
  for (int i = 0; i < n; ++i) values[i] = (i * i + i / 3) % k;
  return values;
}

class BatchExactTest : public ::testing::TestWithParam<Protocol> {};

// Scalar reference: the historical per-user loop.
std::vector<long long> ScalarCounts(const FrequencyOracle& oracle,
                                    const std::vector<int>& values, Rng& rng) {
  std::vector<long long> counts(oracle.k(), 0);
  for (int v : values) {
    Report r = oracle.Randomize(v, rng);
    oracle.AccumulateSupport(r, &counts);
  }
  return counts;
}

TEST_P(BatchExactTest, BatchRandomizeSinkMatchesScalarBitwise) {
  for (int k : kDomains) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto oracle = MakeOracle(GetParam(), k, kEpsilon);
    const std::vector<int> values = TestValues(kUsers, k);

    Rng scalar_rng(kSeed);
    const std::vector<long long> expected =
        ScalarCounts(*oracle, values, scalar_rng);

    Rng batch_rng(kSeed);
    auto agg = oracle->MakeAggregator();
    oracle->BatchRandomize(values, batch_rng,
                           [&](const Report& r) { agg->Accumulate(r); });

    EXPECT_EQ(agg->counts(), expected);
    EXPECT_EQ(agg->n(), kUsers);
    // Both paths must also have consumed the generator identically.
    EXPECT_EQ(scalar_rng(), batch_rng());
  }
}

TEST_P(BatchExactTest, WireBlockPathMatchesScalarBitwise) {
  for (int k : kDomains) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto oracle = MakeOracle(GetParam(), k, kEpsilon);
    const std::vector<int> values = TestValues(kUsers, k);

    Rng scalar_rng(kSeed);
    const std::vector<long long> expected =
        ScalarCounts(*oracle, values, scalar_rng);

    // Each report's wire image in its own row, decoded a staging block
    // (kBlockRows rows) at a time, as serve::Collector lays them out.
    Rng wire_rng(kSeed);
    const std::size_t frame_bytes = WireDecoder(*oracle).report_bytes();
    const std::size_t stride = bitslice::RowStride(frame_bytes);
    std::vector<std::uint8_t> rows(values.size() * stride +
                                       bitslice::kRowTailSlack,
                                   0);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::vector<std::uint8_t> frame =
          SerializeReport(*oracle, oracle->Randomize(values[i], wire_rng));
      std::copy(frame.begin(), frame.end(), rows.begin() + i * stride);
    }
    auto agg = oracle->MakeAggregator();
    for (int done = 0; done < kUsers; done += bitslice::kBlockRows) {
      agg->AccumulateWireBlock(rows.data() + done * stride, stride,
                               std::min(bitslice::kBlockRows, kUsers - done));
    }

    EXPECT_EQ(agg->counts(), expected);
    EXPECT_EQ(agg->n(), kUsers);
    EXPECT_EQ(scalar_rng(), wire_rng());
    // Identical counts imply identical (not just close) estimates.
    EXPECT_EQ(agg->Estimate(), oracle->EstimateFromCounts(expected, kUsers));
  }
}

TEST_P(BatchExactTest, MergeOfShardsEqualsOneAggregator) {
  for (int k : kDomains) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto oracle = MakeOracle(GetParam(), k, kEpsilon);
    const std::vector<int> values = TestValues(kUsers, k);

    Rng whole_rng(kSeed);
    auto whole = oracle->MakeAggregator();
    for (int v : values) whole->Accumulate(oracle->Randomize(v, whole_rng));

    // Same stream, split across K = 4 uneven shards (one of them empty).
    Rng shard_rng(kSeed);
    const std::size_t cuts[] = {0, 117, 117, 400, values.size()};
    auto merged = oracle->MakeAggregator();
    for (int s = 0; s + 1 < 5; ++s) {
      auto part = oracle->MakeAggregator();
      for (std::size_t i = cuts[s]; i < cuts[s + 1]; ++i) {
        part->Accumulate(oracle->Randomize(values[i], shard_rng));
      }
      merged->Merge(*part);
    }

    EXPECT_EQ(merged->counts(), whole->counts());
    EXPECT_EQ(merged->n(), whole->n());
    EXPECT_EQ(merged->Estimate(), whole->Estimate());
  }
}

TEST_P(BatchExactTest, ReusedSinkReportIsValidPerCall) {
  for (int k : kDomains) {
    SCOPED_TRACE("k=" + std::to_string(k));
    // The sink's Report is scratch memory: every call must carry a
    // well-formed report for this protocol (AccumulateSupport validates).
    auto oracle = MakeOracle(GetParam(), k, kEpsilon);
    const std::vector<int> values = TestValues(kUsers, k);
    Rng rng(kSeed);
    std::vector<long long> counts(k, 0);
    long long calls = 0;
    oracle->BatchRandomize(values, rng, [&](const Report& r) {
      oracle->AccumulateSupport(r, &counts);
      ++calls;
    });
    EXPECT_EQ(calls, kUsers);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, BatchExactTest,
                         ::testing::ValuesIn(AllProtocols()),
                         [](const auto& info) {
                           return std::string(ProtocolName(info.param));
                         });

}  // namespace
}  // namespace ldpr::fo
