// Statistical equivalence of the fast (closed-form) profile against
// legacy-exact per-user simulation, at smoke scale.
//
// The closed-form tally paths (multidim/closed_form.h, multidim/numeric.h)
// claim per-value distribution-exactness: an estimate drawn on the fast
// path has the same mean and variance as one drawn by simulating every
// user. The suites below check that claim with 3-sigma z-scores computed
// from the *analytic* estimator variances (Theorems 2/4, RsFdVariance,
// Eq. 2): for every (attribute, value) pair the two fidelities' estimates
// must agree within z = |fast - legacy| / sqrt(Var_fast + Var_legacy).
// With hundreds of pinned-seed draws a small fraction beyond 3 sigma is
// expected (P(|z| > 3) ~ 0.27% per draw), so the assertion is count-based:
// at most 2% of values beyond 3 sigma and none beyond 6 — deterministic
// for the pinned seeds, robust to re-pins.
//
// The four ported scenarios (fig05 / fig16 / abl06 / abl07) are also run
// end-to-end at the Smoke preset under both fidelities: every numeric cell
// must stay finite and the MSE cells within a wide factor band — a
// scenario-level guard against unit errors (a forgotten d or n factor is a
// >= d^2 shift, far outside the band).

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/rng.h"
#include "data/priors.h"
#include "data/synthetic.h"
#include "exp/emitter.h"
#include "exp/experiment.h"
#include "multidim/adaptive.h"
#include "multidim/closed_form.h"
#include "multidim/numeric.h"
#include "multidim/rsfd.h"
#include "multidim/rsrfd.h"
#include "multidim/smp.h"
#include "multidim/spl.h"
#include "multidim/variance.h"
#include "sim/closed_form.h"

namespace ldpr {
namespace {

constexpr double kEpsilon = 2.0;

const data::Dataset& TestDataset() {
  static const data::Dataset* ds =
      new data::Dataset(data::AcsEmploymentLike(7, 0.2));
  return *ds;
}

const multidim::AttributeHistograms& TestHistograms() {
  static const auto* hists = new multidim::AttributeHistograms(
      sim::BuildAttributeHistograms(TestDataset()));
  return *hists;
}

/// Count-based 3-sigma gate over per-value z-scores.
void ExpectWithinTolerance(const std::vector<double>& z_scores,
                           const std::string& label) {
  ASSERT_FALSE(z_scores.empty()) << label;
  int beyond3 = 0;
  double max_z = 0.0;
  for (double z : z_scores) {
    EXPECT_TRUE(std::isfinite(z)) << label;
    if (z > 3.0) ++beyond3;
    max_z = std::max(max_z, z);
  }
  EXPECT_LE(beyond3, std::max<int>(1, static_cast<int>(z_scores.size()) / 50))
      << label << ": " << beyond3 << "/" << z_scores.size()
      << " values beyond 3 sigma";
  EXPECT_LT(max_z, 6.0) << label;
}

/// z-scores between two per-attribute estimate sets given a per-value
/// variance callback (variance of ONE fidelity's estimator; the difference
/// uses 2x).
template <typename VarianceFn>
std::vector<double> ZScores(
    const std::vector<std::vector<double>>& fast,
    const std::vector<std::vector<double>>& legacy,
    const std::vector<std::vector<double>>& truth, VarianceFn variance) {
  EXPECT_EQ(fast.size(), legacy.size());
  std::vector<double> z;
  for (std::size_t j = 0; j < fast.size(); ++j) {
    EXPECT_EQ(fast[j].size(), legacy[j].size());
    for (std::size_t v = 0; v < fast[j].size(); ++v) {
      const double var =
          variance(static_cast<int>(j), static_cast<int>(v), truth[j][v]);
      z.push_back(std::abs(fast[j][v] - legacy[j][v]) /
                  std::sqrt(2.0 * var));
    }
  }
  return z;
}

TEST(SimFastProfile, RsFdAllVariantsAgree) {
  const data::Dataset& ds = TestDataset();
  const auto truth = ds.Marginals();
  const long long n = ds.n();
  for (multidim::RsFdVariant variant :
       {multidim::RsFdVariant::kGrr, multidim::RsFdVariant::kSueZ,
        multidim::RsFdVariant::kSueR, multidim::RsFdVariant::kOueZ,
        multidim::RsFdVariant::kOueR}) {
    const multidim::RsFd protocol(variant, ds.domain_sizes(), kEpsilon);
    Rng legacy_rng(101), fast_rng(202);
    std::vector<multidim::MultidimReport> reports;
    reports.reserve(ds.n());
    for (int i = 0; i < ds.n(); ++i) {
      reports.push_back(protocol.RandomizeUser(ds.Record(i), legacy_rng));
    }
    const auto legacy = protocol.Estimate(reports);
    const auto fast =
        multidim::EstimateClosedForm(protocol, TestHistograms(), n, fast_rng);
    ExpectWithinTolerance(
        ZScores(fast, legacy, truth,
                [&](int j, int, double f) {
                  return multidim::RsFdVariance(variant, ds.domain_size(j),
                                                ds.d(), kEpsilon, n, f);
                }),
        multidim::RsFdVariantName(variant));
  }
}

TEST(SimFastProfile, RsRfdAllVariantsAgree) {
  const data::Dataset& ds = TestDataset();
  const auto truth = ds.Marginals();
  const long long n = ds.n();
  Rng prior_rng(9);
  const auto priors =
      data::BuildPriors(ds, data::PriorKind::kCorrectLaplace, prior_rng);
  for (multidim::RsRfdVariant variant :
       {multidim::RsRfdVariant::kGrr, multidim::RsRfdVariant::kSueR,
        multidim::RsRfdVariant::kOueR}) {
    const multidim::RsRfd protocol(variant, ds.domain_sizes(), kEpsilon,
                                   priors);
    Rng legacy_rng(303), fast_rng(404);
    std::vector<multidim::MultidimReport> reports;
    reports.reserve(ds.n());
    for (int i = 0; i < ds.n(); ++i) {
      reports.push_back(protocol.RandomizeUser(ds.Record(i), legacy_rng));
    }
    const auto legacy = protocol.Estimate(reports);
    const auto fast =
        multidim::EstimateClosedForm(protocol, TestHistograms(), n, fast_rng);
    ExpectWithinTolerance(
        ZScores(fast, legacy, truth,
                [&](int j, int v, double f) {
                  return protocol.EstimatorVariance(j, v, n, f);
                }),
        multidim::RsRfdVariantName(variant));
  }
}

TEST(SimFastProfile, RsFdAdaptiveAgrees) {
  const data::Dataset& ds = TestDataset();
  const auto truth = ds.Marginals();
  const long long n = ds.n();
  const multidim::RsFdAdaptive protocol(ds.domain_sizes(), kEpsilon);
  Rng legacy_rng(505), fast_rng(606);
  std::vector<multidim::MultidimReport> reports;
  reports.reserve(ds.n());
  for (int i = 0; i < ds.n(); ++i) {
    reports.push_back(protocol.RandomizeUser(ds.Record(i), legacy_rng));
  }
  const auto legacy = protocol.Estimate(reports);
  const auto fast =
      multidim::EstimateClosedForm(protocol, TestHistograms(), n, fast_rng);
  ExpectWithinTolerance(
      ZScores(fast, legacy, truth,
              [&](int j, int, double f) {
                return multidim::RsFdVariance(protocol.choice(j),
                                              ds.domain_size(j), ds.d(),
                                              kEpsilon, n, f);
              }),
      "RS+FD[ADP]");
}

TEST(SimFastProfile, SplAgrees) {
  const data::Dataset& ds = TestDataset();
  const auto truth = ds.Marginals();
  const long long n = ds.n();
  for (fo::Protocol fo_protocol : {fo::Protocol::kGrr, fo::Protocol::kOue}) {
    const multidim::Spl protocol(fo_protocol, ds.domain_sizes(), kEpsilon);
    Rng legacy_rng(707), fast_rng(808);
    std::vector<std::vector<fo::Report>> reports;
    reports.reserve(ds.n());
    for (int i = 0; i < ds.n(); ++i) {
      reports.push_back(protocol.RandomizeUser(ds.Record(i), legacy_rng));
    }
    const auto legacy = protocol.Estimate(reports);
    const auto fast =
        multidim::EstimateClosedForm(protocol, TestHistograms(), n, fast_rng);
    ExpectWithinTolerance(
        ZScores(fast, legacy, truth,
                [&](int j, int, double f) {
                  return protocol.oracle(j).EstimatorVariance(n, f);
                }),
        std::string("SPL[") + fo::ProtocolName(fo_protocol) + "]");
  }
}

TEST(SimFastProfile, SmpAgrees) {
  const data::Dataset& ds = TestDataset();
  const auto truth = ds.Marginals();
  const long long n = ds.n();
  // Attribute j sees ~ n/d reports; the variance callback uses that
  // expectation (the count-based gate absorbs the fluctuation).
  const long long nj = n / ds.d();
  for (fo::Protocol fo_protocol : {fo::Protocol::kGrr, fo::Protocol::kOue}) {
    const multidim::Smp protocol(fo_protocol, ds.domain_sizes(), kEpsilon);
    Rng legacy_rng(909), fast_rng(111);
    std::vector<multidim::SmpReport> reports;
    reports.reserve(ds.n());
    for (int i = 0; i < ds.n(); ++i) {
      reports.push_back(protocol.RandomizeUser(ds.Record(i), legacy_rng));
    }
    const auto legacy = protocol.Estimate(reports);
    const auto fast =
        multidim::EstimateClosedForm(protocol, TestHistograms(), n, fast_rng);
    ExpectWithinTolerance(
        ZScores(fast, legacy, truth,
                [&](int j, int, double f) {
                  return protocol.oracle(j).EstimatorVariance(nj, f);
                }),
        std::string("SMP[") + fo::ProtocolName(fo_protocol) + "]");
  }
}

TEST(SimFastProfile, SmpAdaptiveAgrees) {
  const data::Dataset& ds = TestDataset();
  const auto truth = ds.Marginals();
  const long long n = ds.n();
  const long long nj = n / ds.d();
  const multidim::SmpAdaptive protocol(ds.domain_sizes(), kEpsilon);
  Rng legacy_rng(121), fast_rng(212);
  std::vector<multidim::SmpReport> reports;
  reports.reserve(ds.n());
  for (int i = 0; i < ds.n(); ++i) {
    reports.push_back(protocol.RandomizeUser(ds.Record(i), legacy_rng));
  }
  const auto legacy = protocol.Estimate(reports);
  const auto fast =
      multidim::EstimateClosedForm(protocol, TestHistograms(), n, fast_rng);
  ExpectWithinTolerance(
      ZScores(fast, legacy, truth,
              [&](int j, int, double f) {
                return protocol.oracle(j).EstimatorVariance(nj, f);
              }),
      "SMP[ADP]");
}

TEST(SimFastProfile, GrrFakeCountsPreserveTotals) {
  // GRR-payload fake data is drawn as a sum-preserving multinomial and the
  // sampled users' support is per-cell binomial: per attribute the total
  // support count stays within [0, n * something sane] and the fake half
  // alone preserves its total. Checked indirectly: with epsilon -> large,
  // p -> 1 and the sampled sub-population reports truthfully, so the
  // support counts of a GRR attribute must sum close to n (fakes sum
  // exactly to n - m_j, truthful to ~m_j).
  const data::Dataset& ds = TestDataset();
  const long long n = ds.n();
  const multidim::RsFd protocol(multidim::RsFdVariant::kGrr,
                                ds.domain_sizes(), 50.0);
  Rng rng(343);
  const auto counts =
      multidim::SampleSupportCounts(protocol, TestHistograms(), n, rng);
  for (int j = 0; j < ds.d(); ++j) {
    long long total = 0;
    for (long long c : counts[j]) total += c;
    EXPECT_EQ(total, n) << "attribute " << j
                        << ": at p ~ 1 every user contributes exactly one "
                           "supported value";
  }
}

TEST(SimFastProfile, NumericMechanismsAgree) {
  const int d = 4;
  const long long n = 4000;
  const multidim::NumericLdp snap(multidim::NumericMechanism::kDuchi, 1.0,
                                  32);
  Rng data_rng(77);
  std::vector<std::vector<double>> columns(d);
  std::vector<std::vector<long long>> hists(d);
  for (int j = 0; j < d; ++j) {
    columns[j].resize(n);
    hists[j].assign(32, 0);
    for (long long i = 0; i < n; ++i) {
      const double raw = std::clamp(0.3 * j - 0.4 + 0.25 * data_rng.Gaussian(),
                                    -1.0, 1.0);
      columns[j][i] = snap.GridValue(snap.GridIndex(raw));
      ++hists[j][snap.GridIndex(raw)];
    }
  }
  for (multidim::NumericMechanism mechanism :
       {multidim::NumericMechanism::kDuchi,
        multidim::NumericMechanism::kPiecewise}) {
    const multidim::NumericLdp mech(mechanism, kEpsilon, 32);
    Rng legacy_rng(454), fast_rng(565);
    const auto legacy =
        multidim::EstimateNumericMeans(mech, columns, legacy_rng);
    const auto fast =
        multidim::EstimateNumericMeansClosedForm(mech, hists, fast_rng);
    // Var of a mean over ~ n/d users, bounded by the worst per-output
    // conditional variance.
    double worst = 0.0;
    for (int g = 0; g < mech.grid_points(); ++g) {
      worst = std::max(worst, mech.ConditionalVariance(g));
    }
    const double var = worst / (static_cast<double>(n) / d);
    std::vector<double> z;
    for (int j = 0; j < d; ++j) {
      z.push_back(std::abs(fast[j] - legacy[j]) / std::sqrt(2.0 * var));
    }
    ExpectWithinTolerance(z, multidim::NumericMechanismName(mechanism));
  }
}

TEST(SimFastProfile, NumericMomentsAgree) {
  const int d = 3;
  const long long n = 6000;
  const multidim::NumericLdp snap(multidim::NumericMechanism::kPiecewise,
                                  1.0, 32);
  Rng data_rng(88);
  std::vector<std::vector<double>> columns(d);
  const long long mean_half = multidim::NumericMeanHalfCount(n);
  std::vector<std::vector<long long>> mean_hists(d), moment_hists(d);
  for (int j = 0; j < d; ++j) {
    columns[j].resize(n);
    mean_hists[j].assign(32, 0);
    moment_hists[j].assign(32, 0);
    for (long long i = 0; i < n; ++i) {
      const double raw =
          std::clamp(0.2 * j * (data_rng.Bernoulli(0.5) ? 1.0 : -1.0) +
                         0.3 * data_rng.Gaussian(),
                     -1.0, 1.0);
      columns[j][i] = snap.GridValue(snap.GridIndex(raw));
      ++(i < mean_half ? mean_hists : moment_hists)[j][snap.GridIndex(raw)];
    }
  }
  const multidim::NumericLdp mech(multidim::NumericMechanism::kPiecewise,
                                  kEpsilon, 32);
  Rng legacy_rng(676), fast_rng(787);
  const auto legacy =
      multidim::EstimateNumericMoments(mech, columns, legacy_rng);
  const auto fast = multidim::EstimateNumericMomentsClosedForm(
      mech, mean_hists, moment_hists, fast_rng);
  double worst = 0.0;
  for (int g = 0; g < mech.grid_points(); ++g) {
    worst = std::max(worst, mech.ConditionalVariance(g));
  }
  const double var = worst / (static_cast<double>(n) / 2 / d);
  std::vector<double> z;
  for (int j = 0; j < d; ++j) {
    z.push_back(std::abs(fast.mean[j] - legacy.mean[j]) /
                std::sqrt(2.0 * var));
    // second_moment = (s-estimate + 1) / 2, so its variance is var / 4.
    z.push_back(std::abs(fast.second_moment[j] - legacy.second_moment[j]) /
                std::sqrt(2.0 * var / 4.0));
  }
  ExpectWithinTolerance(z, "PM moments");
}

// ---------------------------------------------------------------------------
// Scenario-level: the four ported experiments under both fidelities.

class RecordingEmitter : public exp::Emitter {
 public:
  void Comment(const std::string&) override {}
  void Text(const std::string&) override {}
  void BeginTable(const exp::TableSpec& spec) override {
    tables.push_back({spec, {}});
  }
  void Row(const std::vector<exp::Cell>& cells) override {
    tables.back().rows.push_back(cells);
  }
  struct Table {
    exp::TableSpec spec;
    std::vector<std::vector<exp::Cell>> rows;
  };
  std::vector<Table> tables;
};

RecordingEmitter RunScenario(const std::string& name,
                             exp::RunProfile::Fidelity fidelity) {
  const exp::ExperimentSpec* spec = exp::Registry::Instance().Find(name);
  EXPECT_NE(spec, nullptr) << name;
  exp::RunProfile profile = exp::RunProfile::Smoke();
  profile.fidelity = fidelity;
  RecordingEmitter recording;
  exp::RunExperiment(*spec, recording, profile);
  return recording;
}

TEST(SimFastProfile, PortedScenariosMatchShapeAndMagnitude) {
  for (const std::string name : {"fig05", "fig16", "abl06", "abl07"}) {
    SCOPED_TRACE(name);
    const RecordingEmitter legacy =
        RunScenario(name, exp::RunProfile::Fidelity::kLegacyExact);
    const RecordingEmitter fast =
        RunScenario(name, exp::RunProfile::Fidelity::kFast);
    ASSERT_EQ(legacy.tables.size(), fast.tables.size());
    for (std::size_t t = 0; t < legacy.tables.size(); ++t) {
      ASSERT_EQ(legacy.tables[t].rows.size(), fast.tables[t].rows.size());
      for (std::size_t r = 0; r < legacy.tables[t].rows.size(); ++r) {
        const auto& lrow = legacy.tables[t].rows[r];
        const auto& frow = fast.tables[t].rows[r];
        ASSERT_EQ(lrow.size(), frow.size());
        // Cell 0 is the x axis — must match exactly.
        EXPECT_EQ(lrow[0].text, frow[0].text);
        for (std::size_t c = 1; c < lrow.size(); ++c) {
          if (!lrow[c].is_number) continue;
          EXPECT_TRUE(std::isfinite(frow[c].number));
          // MSE cells: same quantity estimated twice; a unit error (lost d
          // or n factor) lands orders of magnitude outside this band.
          if (lrow[c].number > 0.0 && frow[c].number > 0.0) {
            const double ratio = frow[c].number / lrow[c].number;
            EXPECT_GT(ratio, 1.0 / 32.0)
                << name << " table " << t << " row " << r << " col " << c;
            EXPECT_LT(ratio, 32.0)
                << name << " table " << t << " row " << r << " col " << c;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ldpr
