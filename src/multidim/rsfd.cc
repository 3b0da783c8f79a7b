#include "multidim/rsfd.h"

#include <cmath>

#include "core/check.h"
#include "fo/grr.h"
#include "fo/unary_encoding.h"
#include "multidim/amplification.h"

namespace ldpr::multidim {

const char* RsFdVariantName(RsFdVariant variant) {
  switch (variant) {
    case RsFdVariant::kGrr:
      return "RS+FD[GRR]";
    case RsFdVariant::kSueZ:
      return "RS+FD[SUE-z]";
    case RsFdVariant::kSueR:
      return "RS+FD[SUE-r]";
    case RsFdVariant::kOueZ:
      return "RS+FD[OUE-z]";
    case RsFdVariant::kOueR:
      return "RS+FD[OUE-r]";
  }
  return "unknown";
}

bool IsUeVariant(RsFdVariant variant) { return variant != RsFdVariant::kGrr; }

bool IsZeroFakeVariant(RsFdVariant variant) {
  return variant == RsFdVariant::kSueZ || variant == RsFdVariant::kOueZ;
}

RsFd::RsFd(RsFdVariant variant, std::vector<int> domain_sizes, double epsilon)
    : variant_(variant),
      domain_sizes_(std::move(domain_sizes)),
      epsilon_(epsilon) {
  LDPR_REQUIRE(domain_sizes_.size() >= 2,
               "RS+FD targets multidimensional data (d >= 2), got d="
                   << domain_sizes_.size());
  for (int k : domain_sizes_) {
    LDPR_REQUIRE(k >= 2, "every attribute needs domain size >= 2");
  }
  LDPR_REQUIRE(epsilon > 0.0, "RS+FD requires epsilon > 0");
  amplified_epsilon_ = AmplifiedEpsilon(epsilon_, d());
  switch (variant_) {
    case RsFdVariant::kGrr:
      break;
    case RsFdVariant::kSueZ:
    case RsFdVariant::kSueR:
      ue_p_ = fo::Sue::PForEpsilon(amplified_epsilon_);
      ue_q_ = fo::Sue::QForEpsilon(amplified_epsilon_);
      break;
    case RsFdVariant::kOueZ:
    case RsFdVariant::kOueR:
      ue_p_ = fo::Oue::PForEpsilon(amplified_epsilon_);
      ue_q_ = fo::Oue::QForEpsilon(amplified_epsilon_);
      break;
  }
}

double RsFd::p(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  if (IsUeVariant(variant_)) return ue_p_;
  const double e = std::exp(amplified_epsilon_);
  return e / (e + domain_sizes_[attribute] - 1);
}

double RsFd::q(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  if (IsUeVariant(variant_)) return ue_q_;
  return (1.0 - p(attribute)) / (domain_sizes_[attribute] - 1);
}

MultidimReport RsFd::RandomizeUser(const std::vector<int>& record,
                                   Rng& rng) const {
  return RandomizeUserWithAttribute(
      record, static_cast<int>(rng.UniformInt(d())), rng);
}

MultidimReport RsFd::RandomizeUserWithAttribute(const std::vector<int>& record,
                                                int sampled_attribute,
                                                Rng& rng) const {
  LDPR_REQUIRE(static_cast<int>(record.size()) == d(),
               "record has " << record.size() << " values, expected " << d());
  LDPR_REQUIRE(sampled_attribute >= 0 && sampled_attribute < d(),
               "sampled attribute out of range");
  MultidimReport out;
  out.sampled_attribute = sampled_attribute;

  if (!IsUeVariant(variant_)) {
    out.values.resize(d());
    for (int j = 0; j < d(); ++j) {
      if (j == out.sampled_attribute) {
        out.values[j] = fo::Grr::Perturb(record[j], domain_sizes_[j],
                                         amplified_epsilon_, rng);
      } else {
        // Uniform fake value (not perturbed; Section 2.3.2).
        out.values[j] = static_cast<int>(rng.UniformInt(domain_sizes_[j]));
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
    } else if (IsZeroFakeVariant(variant_)) {
      input.assign(kj, 0);  // UE-z: perturb the all-zero vector
    } else {
      // UE-r: perturb a uniformly random one-hot vector.
      input = fo::UnaryEncoding::OneHot(static_cast<int>(rng.UniformInt(kj)),
                                        kj);
    }
    out.bits[j] = fo::UnaryEncoding::PerturbBits(input, ue_p_, ue_q_, rng);
  }
  return out;
}

std::vector<std::vector<long long>> RsFd::SupportCounts(
    const std::vector<MultidimReport>& reports) const {
  std::vector<std::vector<long long>> counts(d());
  for (int j = 0; j < d(); ++j) counts[j].assign(domain_sizes_[j], 0);
  for (const MultidimReport& r : reports) {
    if (!IsUeVariant(variant_)) {
      LDPR_REQUIRE(static_cast<int>(r.values.size()) == d(),
                   "report width mismatch");
      for (int j = 0; j < d(); ++j) {
        LDPR_REQUIRE(r.values[j] >= 0 && r.values[j] < domain_sizes_[j],
                     "report value out of range");
        ++counts[j][r.values[j]];
      }
    } else {
      LDPR_REQUIRE(static_cast<int>(r.bits.size()) == d(),
                   "report width mismatch");
      for (int j = 0; j < d(); ++j) {
        LDPR_REQUIRE(static_cast<int>(r.bits[j].size()) == domain_sizes_[j],
                     "report bit-vector length mismatch");
        for (int v = 0; v < domain_sizes_[j]; ++v) {
          if (r.bits[j][v]) ++counts[j][v];
        }
      }
    }
  }
  return counts;
}

std::vector<std::vector<double>> RsFd::Estimate(
    const std::vector<MultidimReport>& reports) const {
  LDPR_REQUIRE(!reports.empty(), "Estimate requires at least one report");
  return EstimateFromSupportCounts(SupportCounts(reports),
                                   static_cast<long long>(reports.size()));
}

std::vector<std::vector<double>> RsFd::EstimateFromSupportCounts(
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
    const double kj = domain_sizes_[j];
    const double pj = p(j);
    const double qj = q(j);
    est[j].resize(domain_sizes_[j]);
    for (int v = 0; v < domain_sizes_[j]; ++v) {
      const double c = static_cast<double>(counts[j][v]);
      double fhat = 0.0;
      switch (variant_) {
        case RsFdVariant::kGrr:
          // fhat = (C d k - n(d - 1 + q k)) / (n k (p - q))
          fhat = (c * dd * kj - n * (dd - 1.0 + qj * kj)) /
                 (n * kj * (pj - qj));
          break;
        case RsFdVariant::kSueZ:
        case RsFdVariant::kOueZ:
          // fhat = d (C - n q) / (n (p - q))
          fhat = dd * (c - n * qj) / (n * (pj - qj));
          break;
        case RsFdVariant::kSueR:
        case RsFdVariant::kOueR:
          // fhat = (C d k - n[q k + (p - q)(d-1) + q k (d-1)])
          //        / (n k (p - q))
          fhat = (c * dd * kj -
                  n * (qj * kj + (pj - qj) * (dd - 1.0) +
                       qj * kj * (dd - 1.0))) /
                 (n * kj * (pj - qj));
          break;
      }
      est[j][v] = fhat;
    }
  }
  return est;
}

}  // namespace ldpr::multidim
