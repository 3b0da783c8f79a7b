// Multidimensional front-end (serve/multidim_collector + multidim_wire):
// sealed estimates must equal the batch Estimate() of the same tuple
// stream exactly for every solution/variant, ingest must be all-or-nothing
// on malformed tuples, and the wire formats must match the priced tuple
// widths (fo/comm_cost).

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/priors.h"
#include "data/synthetic.h"
#include "fo/comm_cost.h"
#include "obs/metrics.h"
#include "serve/loadgen.h"
#include "serve/multidim_collector.h"

namespace ldpr::serve {
namespace {

const data::Dataset& TestDataset() {
  static const data::Dataset dataset = data::NurseryLike(7, 0.02);  // n = 259
  return dataset;
}

template <typename Solution, typename Report>
std::vector<std::vector<std::uint8_t>> SerializeAll(
    const Solution& solution, const std::vector<Report>& reports);

template <>
std::vector<std::vector<std::uint8_t>> SerializeAll(
    const multidim::Spl& spl,
    const std::vector<std::vector<fo::Report>>& reports) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& r : reports) frames.push_back(SerializeSplReports(spl, r));
  return frames;
}

template <>
std::vector<std::vector<std::uint8_t>> SerializeAll(
    const multidim::Smp& smp, const std::vector<multidim::SmpReport>& reports) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& r : reports) frames.push_back(SerializeSmpReport(smp, r));
  return frames;
}

template <>
std::vector<std::vector<std::uint8_t>> SerializeAll(
    const multidim::RsFd& rsfd,
    const std::vector<multidim::MultidimReport>& reports) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& r : reports) frames.push_back(SerializeRsFdReport(rsfd, r));
  return frames;
}

template <>
std::vector<std::vector<std::uint8_t>> SerializeAll(
    const multidim::RsRfd& rsrfd,
    const std::vector<multidim::MultidimReport>& reports) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& r : reports) {
    frames.push_back(SerializeRsRfdReport(rsrfd, r));
  }
  return frames;
}

/// Randomizes every dataset record, ships the tuples through a
/// MultidimCollector with `lanes` lanes, and checks the sealed estimates
/// against the solution's own batch Estimate of the identical report vector.
template <typename Solution>
void ExpectSealMatchesBatchAt(const Solution& solution, int lanes) {
  const data::Dataset& ds = TestDataset();
  Rng rng(31);
  std::vector<decltype(solution.RandomizeUser(ds.Record(0), rng))> reports;
  reports.reserve(ds.n());
  for (int i = 0; i < ds.n(); ++i) {
    reports.push_back(solution.RandomizeUser(ds.Record(i), rng));
  }
  const auto frames = SerializeAll(solution, reports);

  MultidimCollector collector(solution, CollectorOptions{.lanes = lanes});
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(collector
                    .Ingest({frames[i], std::nullopt,
                             static_cast<int>(i * 5 + 1)})
                    .accepted);
  }
  const MultidimSnapshot snapshot = collector.Seal();
  EXPECT_EQ(snapshot.n, ds.n());
  EXPECT_EQ(snapshot.stats.rejected, 0);
  const auto batch = solution.Estimate(reports);
  ASSERT_EQ(snapshot.estimates.size(), batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    EXPECT_EQ(snapshot.estimates[j], batch[j]) << "attribute " << j;
  }
}

/// ExpectSealMatchesBatchAt at one lane — 259 tuples against kBlockRows =
/// 128, so every column crosses flush boundaries — and at `lanes`.
template <typename Solution>
void ExpectSealMatchesBatch(const Solution& solution, int lanes) {
  for (int lane_count : {1, lanes}) {
    SCOPED_TRACE(lane_count);
    ExpectSealMatchesBatchAt(solution, lane_count);
  }
}

TEST(ServeMultidimTest, SplSealMatchesBatchEstimate) {
  for (fo::Protocol protocol : fo::AllProtocols()) {
    SCOPED_TRACE(fo::ProtocolName(protocol));
    multidim::Spl spl(protocol, TestDataset().domain_sizes(), 2.0);
    ExpectSealMatchesBatch(spl, 3);
  }
}

TEST(ServeMultidimTest, SmpSealMatchesBatchEstimate) {
  for (fo::Protocol protocol : fo::AllProtocols()) {
    SCOPED_TRACE(fo::ProtocolName(protocol));
    multidim::Smp smp(protocol, TestDataset().domain_sizes(), 2.0);
    ExpectSealMatchesBatch(smp, 4);
  }
}

TEST(ServeMultidimTest, RsFdSealMatchesBatchEstimate) {
  for (multidim::RsFdVariant variant :
       {multidim::RsFdVariant::kGrr, multidim::RsFdVariant::kSueZ,
        multidim::RsFdVariant::kSueR, multidim::RsFdVariant::kOueZ,
        multidim::RsFdVariant::kOueR}) {
    SCOPED_TRACE(multidim::RsFdVariantName(variant));
    multidim::RsFd rsfd(variant, TestDataset().domain_sizes(), 2.0);
    ExpectSealMatchesBatch(rsfd, 2);
  }
}

TEST(ServeMultidimTest, RsRfdSealMatchesBatchEstimate) {
  Rng rng(9);
  const auto priors =
      data::BuildPriors(TestDataset(), data::PriorKind::kCorrectLaplace, rng);
  for (multidim::RsRfdVariant variant :
       {multidim::RsRfdVariant::kGrr, multidim::RsRfdVariant::kSueR,
        multidim::RsRfdVariant::kOueR}) {
    SCOPED_TRACE(multidim::RsRfdVariantName(variant));
    multidim::RsRfd rsrfd(variant, TestDataset().domain_sizes(), 2.0, priors);
    ExpectSealMatchesBatch(rsrfd, 3);
  }
}

// The packed tuple widths are exactly what the communication-cost model
// prices (SPL / RS+FD closed forms; SMP per sampled attribute).
TEST(ServeMultidimTest, WireWidthsMatchCommCostModel) {
  const std::vector<int>& ks = TestDataset().domain_sizes();
  const double eps = 2.0;
  for (fo::Protocol protocol :
       {fo::Protocol::kGrr, fo::Protocol::kSue, fo::Protocol::kOue}) {
    multidim::Spl spl(protocol, ks, eps);
    EXPECT_DOUBLE_EQ(SplTupleWireBits(spl),
                     fo::SplTupleBits(protocol, ks, eps));
    multidim::Smp smp(protocol, ks, eps);
    double mean_bits = 0.0;
    for (int j = 0; j < smp.d(); ++j) {
      mean_bits += SmpTupleWireBits(smp, j);
    }
    mean_bits /= smp.d();
    EXPECT_DOUBLE_EQ(mean_bits, fo::SmpTupleBits(protocol, ks, eps));
  }
  // RS+FD GRR: every attribute ships one categorical value at the amplified
  // budget; widths do not depend on epsilon.
  multidim::RsFd rsfd(multidim::RsFdVariant::kGrr, ks, eps);
  EXPECT_DOUBLE_EQ(FdTupleWireBits(false, ks),
                   fo::RsFdTupleBits(fo::Protocol::kGrr, ks, eps));
  multidim::RsFd rsfd_ue(multidim::RsFdVariant::kOueZ, ks, eps);
  EXPECT_DOUBLE_EQ(FdTupleWireBits(true, ks),
                   fo::RsFdTupleBits(fo::Protocol::kOue, ks, eps));
}

// Ingest is all-or-nothing: a tuple whose *last* attribute field is
// malformed must leave every aggregator untouched.
TEST(ServeMultidimTest, MalformedTupleLeavesNothingBehind) {
  const std::vector<int> ks = {4, 6};  // 6 is not a power of two: value 7
                                       // is representable but invalid
  multidim::RsFd rsfd(multidim::RsFdVariant::kGrr, ks, 2.0);
  MultidimCollector collector(rsfd, CollectorOptions{.lanes = 1});

  Rng rng(3);
  const auto good = rsfd.RandomizeUser({1, 2}, rng);
  const auto good_frame = SerializeRsFdReport(rsfd, good);

  // Craft a tuple with valid attribute 0 and out-of-range attribute 1.
  fo::BitWriter writer;
  writer.Write(2, fo::CeilLog2(4));
  writer.Write(7, fo::CeilLog2(6));  // 7 >= k_1 = 6
  EXPECT_FALSE(collector.Ingest({writer.bytes()}).accepted);

  EXPECT_TRUE(collector.Ingest({good_frame}).accepted);
  const MultidimSnapshot snapshot = collector.Seal();
  EXPECT_EQ(snapshot.n, 1);
  EXPECT_EQ(snapshot.stats.rejected, 1);
  // Only the good tuple contributed: the sealed estimate equals the batch
  // estimate of that single report.
  const auto batch = rsfd.Estimate({good});
  for (std::size_t j = 0; j < batch.size(); ++j) {
    EXPECT_EQ(snapshot.estimates[j], batch[j]);
  }
}

// Fuzz every solution front-end with random buffers (this suite runs under
// the ASan fast label): clean accept-or-reject, balanced ledger.
TEST(ServeMultidimTest, RandomBuffersNeverCrash) {
  const data::Dataset& ds = TestDataset();
  multidim::Spl spl(fo::Protocol::kGrr, ds.domain_sizes(), 2.0);
  multidim::Smp smp(fo::Protocol::kOue, ds.domain_sizes(), 2.0);
  multidim::RsFd rsfd(multidim::RsFdVariant::kOueZ, ds.domain_sizes(), 2.0);
  MultidimCollector collectors[] = {
      MultidimCollector(spl, CollectorOptions{.lanes = 2}),
      MultidimCollector(smp, CollectorOptions{.lanes = 2}),
      MultidimCollector(rsfd, CollectorOptions{.lanes = 2}),
  };
  Rng rng(77);
  for (MultidimCollector& collector : collectors) {
    long long accepted = 0;
    const int attempts = 1500;
    for (int trial = 0; trial < attempts; ++trial) {
      std::vector<std::uint8_t> buffer(rng.UniformInt(24));
      for (std::uint8_t& b : buffer) {
        b = static_cast<std::uint8_t>(rng.UniformInt(256));
      }
      accepted +=
          collector.Ingest({buffer, std::nullopt, trial}).accepted ? 1 : 0;
    }
    const MultidimSnapshot snapshot = collector.Seal();
    EXPECT_EQ(snapshot.n, accepted);
    EXPECT_EQ(snapshot.stats.rejected, attempts - accepted);
  }
}

// SMP tuples with an out-of-range attribute index (representable when d is
// not a power of two) are rejected.
TEST(ServeMultidimTest, SmpOutOfRangeAttributeRejected) {
  const std::vector<int> ks = {3, 3, 3, 3, 3};  // d = 5 -> 3 index bits
  multidim::Smp smp(fo::Protocol::kGrr, ks, 2.0);
  MultidimCollector collector(smp, CollectorOptions{.lanes = 1});
  Rng rng(4);
  const auto report = smp.RandomizeUserAttribute({0, 1, 2, 0, 1}, 2, rng);
  std::vector<std::uint8_t> frame = SerializeSmpReport(smp, report);
  EXPECT_TRUE(collector.Ingest({frame}).accepted);
  // Overwrite the 3 index bits with 6 (>= d).
  frame[0] = static_cast<std::uint8_t>((frame[0] & 0x1F) | (6u << 5));
  const IngestResult rejected = collector.Ingest({frame});
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reason, RejectReason::kMalformed);
  const MultidimSnapshot snapshot = collector.Seal();
  EXPECT_EQ(snapshot.n, 1);
  EXPECT_EQ(snapshot.stats.rejected, 1);
}

/// Four producer threads, each on its own lane, must seal bit-identical to
/// one thread feeding one lane: the lane and thread count never change a
/// sealed epoch.
template <typename Solution>
void ExpectConcurrentSealMatchesSerial(const Solution& solution,
                                       const data::Dataset& ds) {
  Rng rng(41);
  std::vector<decltype(solution.RandomizeUser(ds.Record(0), rng))> reports;
  for (int i = 0; i < ds.n(); ++i) {
    reports.push_back(solution.RandomizeUser(ds.Record(i), rng));
  }
  auto frames = SerializeAll(solution, reports);
  frames.push_back({0xFF});  // one malformed tuple, rejected on both paths

  MultidimCollector serial(solution, CollectorOptions{.lanes = 1});
  for (const auto& frame : frames) serial.Ingest({frame});

  constexpr int kProducers = 4;
  MultidimCollector concurrent(solution,
                               CollectorOptions{.lanes = kProducers});
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = t; i < frames.size(); i += kProducers) {
        concurrent.Ingest({frames[i], std::nullopt, t});
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  const MultidimSnapshot a = serial.Seal();
  const MultidimSnapshot b = concurrent.Seal();
  EXPECT_EQ(a.n, ds.n());
  EXPECT_EQ(b.n, a.n);
  EXPECT_EQ(b.stats.reports, a.stats.reports);
  EXPECT_EQ(b.stats.bytes, a.stats.bytes);
  EXPECT_EQ(b.stats.rejected, 1);
  EXPECT_EQ(b.estimates, a.estimates);
  EXPECT_EQ(b.ledger.per_attribute, a.ledger.per_attribute);
  EXPECT_EQ(b.ledger.total_epsilon, a.ledger.total_epsilon);
}

TEST(ServeMultidimTest, ConcurrentProducersSealBitIdenticalToSerial) {
  const data::Dataset ds = data::NurseryLike(11, 0.2);
  Rng prior_rng(5);
  const auto priors =
      data::BuildPriors(ds, data::PriorKind::kCorrectLaplace, prior_rng);
  ExpectConcurrentSealMatchesSerial(
      multidim::Spl(fo::Protocol::kGrr, ds.domain_sizes(), 2.0), ds);
  ExpectConcurrentSealMatchesSerial(
      multidim::Smp(fo::Protocol::kOue, ds.domain_sizes(), 2.0), ds);
  ExpectConcurrentSealMatchesSerial(
      multidim::RsFd(multidim::RsFdVariant::kGrr, ds.domain_sizes(), 2.0), ds);
  ExpectConcurrentSealMatchesSerial(
      multidim::RsRfd(multidim::RsRfdVariant::kOueR, ds.domain_sizes(), 2.0,
                      priors),
      ds);
}

// Value of an exactly-named series in a Prometheus text rendering; -1 when
// absent.
long long SeriesValue(const std::string& text, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const std::size_t pos = ("\n" + text).find(needle);
  if (pos == std::string::npos) return -1;
  return std::stoll(text.substr(pos + needle.size() - 1));
}

// With a MetricsRegistry attached, the multidim front-end exports the
// Collector's ldpr_ingest_* counters in tuples: a scrape — mid-epoch or
// after the seal — equals the sealed stats, malformed tuples included.
TEST(ServeMultidimTest, ScrapedIngestCountersMatchSealedStats) {
  const data::Dataset& ds = TestDataset();
  multidim::Smp smp(fo::Protocol::kGrr, ds.domain_sizes(), 2.0);
  multidim::RsFd rsfd(multidim::RsFdVariant::kOueR, ds.domain_sizes(), 2.0);
  Rng rng(8);
  std::vector<multidim::SmpReport> smp_reports;
  std::vector<multidim::MultidimReport> fd_reports;
  for (int i = 0; i < ds.n(); ++i) {
    smp_reports.push_back(smp.RandomizeUser(ds.Record(i), rng));
    fd_reports.push_back(rsfd.RandomizeUser(ds.Record(i), rng));
  }
  const auto check = [](MultidimCollector& collector,
                        obs::MetricsRegistry& registry,
                        const std::vector<std::vector<std::uint8_t>>& frames) {
    long long malformed = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      collector.Ingest({frames[i], std::nullopt, static_cast<int>(i)});
      if (i % 7 == 0) {  // truncated and over-long tuples
        std::vector<std::uint8_t> bad = frames[i];
        if (i % 2 == 0) {
          bad.pop_back();
        } else {
          bad.push_back(0);
        }
        EXPECT_FALSE(collector.Ingest({bad}).accepted);
        ++malformed;
      }
    }
    const std::string mid_epoch = registry.RenderPrometheus();
    const MultidimSnapshot snapshot = collector.Seal();
    const std::string sealed = registry.RenderPrometheus();
    EXPECT_EQ(snapshot.stats.rejected, malformed);
    for (const std::string& text : {mid_epoch, sealed}) {
      EXPECT_EQ(SeriesValue(text, "ldpr_ingest_reports_total"),
                snapshot.stats.reports);
      EXPECT_EQ(SeriesValue(text, "ldpr_ingest_bytes_total"),
                snapshot.stats.bytes);
      EXPECT_EQ(SeriesValue(
                    text, "ldpr_ingest_rejects_total{reason=\"malformed\"}"),
                snapshot.stats.rejected);
    }
  };
  {
    obs::MetricsRegistry registry;
    MultidimCollector collector(
        smp, CollectorOptions{.lanes = 2, .metrics = &registry});
    check(collector, registry, SerializeAll(smp, smp_reports));
  }
  {
    obs::MetricsRegistry registry;
    MultidimCollector collector(
        rsfd, CollectorOptions{.lanes = 2, .metrics = &registry});
    check(collector, registry, SerializeAll(rsfd, fd_reports));
  }
}

}  // namespace
}  // namespace ldpr::serve
