#include "multidim/rsrfd.h"

#include <cmath>

#include "core/check.h"
#include "fo/grr.h"
#include "fo/unary_encoding.h"
#include "multidim/amplification.h"

namespace ldpr::multidim {

const char* RsRfdVariantName(RsRfdVariant variant) {
  switch (variant) {
    case RsRfdVariant::kGrr:
      return "RS+RFD[GRR]";
    case RsRfdVariant::kSueR:
      return "RS+RFD[SUE-r]";
    case RsRfdVariant::kOueR:
      return "RS+RFD[OUE-r]";
  }
  return "unknown";
}

RsRfd::RsRfd(RsRfdVariant variant, std::vector<int> domain_sizes,
             double epsilon, std::vector<std::vector<double>> priors)
    : variant_(variant),
      domain_sizes_(std::move(domain_sizes)),
      epsilon_(epsilon) {
  LDPR_REQUIRE(domain_sizes_.size() >= 2,
               "RS+RFD targets multidimensional data (d >= 2)");
  LDPR_REQUIRE(epsilon > 0.0, "RS+RFD requires epsilon > 0");
  LDPR_REQUIRE(priors.size() == domain_sizes_.size(),
               "need one prior distribution per attribute");
  amplified_epsilon_ = AmplifiedEpsilon(epsilon_, d());

  priors_.reserve(priors.size());
  prior_samplers_.reserve(priors.size());
  for (std::size_t j = 0; j < priors.size(); ++j) {
    LDPR_REQUIRE(static_cast<int>(priors[j].size()) == domain_sizes_[j],
                 "prior for attribute " << j << " has wrong length");
    priors_.push_back(Normalize(priors[j]));
    prior_samplers_.emplace_back(priors_.back());
  }

  switch (variant_) {
    case RsRfdVariant::kGrr:
      break;
    case RsRfdVariant::kSueR:
      ue_p_ = fo::Sue::PForEpsilon(amplified_epsilon_);
      ue_q_ = fo::Sue::QForEpsilon(amplified_epsilon_);
      break;
    case RsRfdVariant::kOueR:
      ue_p_ = fo::Oue::PForEpsilon(amplified_epsilon_);
      ue_q_ = fo::Oue::QForEpsilon(amplified_epsilon_);
      break;
  }
}

double RsRfd::p(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  if (variant_ != RsRfdVariant::kGrr) return ue_p_;
  const double e = std::exp(amplified_epsilon_);
  return e / (e + domain_sizes_[attribute] - 1);
}

double RsRfd::q(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  if (variant_ != RsRfdVariant::kGrr) return ue_q_;
  return (1.0 - p(attribute)) / (domain_sizes_[attribute] - 1);
}

MultidimReport RsRfd::RandomizeUser(const std::vector<int>& record,
                                    Rng& rng) const {
  LDPR_REQUIRE(static_cast<int>(record.size()) == d(),
               "record has " << record.size() << " values, expected " << d());
  MultidimReport out;
  out.sampled_attribute = static_cast<int>(rng.UniformInt(d()));

  if (variant_ == RsRfdVariant::kGrr) {
    out.values.resize(d());
    for (int j = 0; j < d(); ++j) {
      if (j == out.sampled_attribute) {
        out.values[j] = fo::Grr::Perturb(record[j], domain_sizes_[j],
                                         amplified_epsilon_, rng);
      } else {
        // Realistic fake value: one draw from the attribute's prior
        // (Algorithm 1, line 6). Not perturbed, like RS+FD's uniform fakes.
        out.values[j] = prior_samplers_[j].Sample(rng);
      }
    }
    return out;
  }

  out.bits.resize(d());
  for (int j = 0; j < d(); ++j) {
    const int kj = domain_sizes_[j];
    std::vector<std::uint8_t> input;
    if (j == out.sampled_attribute) {
      input = fo::UnaryEncoding::OneHot(record[j], kj);
    } else {
      // UE-r with realistic fakes: one-hot of a prior-distributed draw.
      input = fo::UnaryEncoding::OneHot(prior_samplers_[j].Sample(rng), kj);
    }
    out.bits[j] = fo::UnaryEncoding::PerturbBits(input, ue_p_, ue_q_, rng);
  }
  return out;
}

std::vector<std::vector<double>> RsRfd::Estimate(
    const std::vector<MultidimReport>& reports) const {
  LDPR_REQUIRE(!reports.empty(), "Estimate requires at least one report");

  // Support counting is identical to RS+FD's for the matching payload shape.
  std::vector<std::vector<long long>> counts(d());
  for (int j = 0; j < d(); ++j) counts[j].assign(domain_sizes_[j], 0);
  for (const MultidimReport& r : reports) {
    if (variant_ == RsRfdVariant::kGrr) {
      LDPR_REQUIRE(static_cast<int>(r.values.size()) == d(),
                   "report width mismatch");
      for (int j = 0; j < d(); ++j) ++counts[j][r.values[j]];
    } else {
      LDPR_REQUIRE(static_cast<int>(r.bits.size()) == d(),
                   "report width mismatch");
      for (int j = 0; j < d(); ++j) {
        for (int v = 0; v < domain_sizes_[j]; ++v) {
          if (r.bits[j][v]) ++counts[j][v];
        }
      }
    }
  }
  return EstimateFromSupportCounts(counts,
                                   static_cast<long long>(reports.size()));
}

std::vector<std::vector<double>> RsRfd::EstimateFromSupportCounts(
    const std::vector<std::vector<long long>>& counts, long long n_ll) const {
  LDPR_REQUIRE(static_cast<int>(counts.size()) == d(),
               "counts width mismatch");
  LDPR_REQUIRE(n_ll >= 1, "EstimateFromSupportCounts requires n >= 1");
  const double n = static_cast<double>(n_ll);
  const double dd = static_cast<double>(d());

  std::vector<std::vector<double>> est(d());
  for (int j = 0; j < d(); ++j) {
    LDPR_REQUIRE(static_cast<int>(counts[j].size()) == domain_sizes_[j],
                 "counts for attribute " << j << " have wrong length");
    const double pj = p(j);
    const double qj = q(j);
    est[j].resize(domain_sizes_[j]);
    for (int v = 0; v < domain_sizes_[j]; ++v) {
      const double c = static_cast<double>(counts[j][v]);
      const double prior = priors_[j][v];
      if (variant_ == RsRfdVariant::kGrr) {
        // Eq. (6): fhat = (d C - n(q + (d-1) f~)) / (n (p - q)).
        est[j][v] =
            (dd * c - n * (qj + (dd - 1.0) * prior)) / (n * (pj - qj));
      } else {
        // Eq. (7): fhat = (d C - n(q + (p-q)(d-1) f~ + q(d-1)))
        //                 / (n (p - q)).
        est[j][v] = (dd * c - n * (qj + (pj - qj) * (dd - 1.0) * prior +
                                   qj * (dd - 1.0))) /
                    (n * (pj - qj));
      }
    }
  }
  return est;
}

double RsRfd::Gamma(int attribute, int value, double f) const {
  const double dd = static_cast<double>(d());
  const double pj = p(attribute);
  const double qj = q(attribute);
  const double prior = priors_[attribute][value];
  if (variant_ == RsRfdVariant::kGrr) {
    // Theorem 2: gamma = (1/d)(q + f(p - q) + (d-1) f~).
    return (qj + f * (pj - qj) + (dd - 1.0) * prior) / dd;
  }
  // Theorem 4: gamma = (1/d)(f(p-q) + q + (d-1)(f~(p-q) + q)).
  return (f * (pj - qj) + qj + (dd - 1.0) * (prior * (pj - qj) + qj)) / dd;
}

double RsRfd::EstimatorVariance(int attribute, int value, long long n,
                                double f) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  LDPR_REQUIRE(value >= 0 && value < domain_sizes_[attribute],
               "value out of range");
  LDPR_REQUIRE(n >= 1, "EstimatorVariance requires n >= 1");
  const double dd = static_cast<double>(d());
  const double pj = p(attribute);
  const double qj = q(attribute);
  const double gamma = Gamma(attribute, value, f);
  // Theorems 2 / 4: Var = d^2 gamma (1 - gamma) / (n (p - q)^2).
  return dd * dd * gamma * (1.0 - gamma) /
         (static_cast<double>(n) * (pj - qj) * (pj - qj));
}

}  // namespace ldpr::multidim
