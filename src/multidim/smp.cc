#include "multidim/smp.h"

#include "core/check.h"

namespace ldpr::multidim {

Smp::Smp(fo::Protocol protocol, std::vector<int> domain_sizes, double epsilon)
    : protocol_(protocol),
      domain_sizes_(std::move(domain_sizes)),
      epsilon_(epsilon) {
  LDPR_REQUIRE(domain_sizes_.size() >= 2,
               "SMP targets multidimensional data (d >= 2)");
  oracles_.reserve(domain_sizes_.size());
  for (int k : domain_sizes_) {
    oracles_.push_back(fo::MakeOracle(protocol, k, epsilon));
  }
}

SmpReport Smp::RandomizeUser(const std::vector<int>& record, Rng& rng) const {
  int attribute = static_cast<int>(rng.UniformInt(d()));
  return RandomizeUserAttribute(record, attribute, rng);
}

SmpReport Smp::RandomizeUserAttribute(const std::vector<int>& record,
                                      int attribute, Rng& rng) const {
  LDPR_REQUIRE(static_cast<int>(record.size()) == d(),
               "record has " << record.size() << " values, expected " << d());
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  SmpReport out;
  out.attribute = attribute;
  out.report = oracles_[attribute]->Randomize(record[attribute], rng);
  return out;
}

std::vector<std::vector<double>> Smp::Estimate(
    const std::vector<SmpReport>& reports) const {
  LDPR_REQUIRE(!reports.empty(), "Estimate requires at least one report");
  std::vector<std::vector<long long>> counts(d());
  std::vector<long long> per_attribute_n(d(), 0);
  for (int j = 0; j < d(); ++j) counts[j].assign(domain_sizes_[j], 0);
  for (const SmpReport& r : reports) {
    LDPR_REQUIRE(r.attribute >= 0 && r.attribute < d(),
                 "report attribute out of range");
    oracles_[r.attribute]->AccumulateSupport(r.report, &counts[r.attribute]);
    ++per_attribute_n[r.attribute];
  }
  std::vector<std::vector<double>> est(d());
  for (int j = 0; j < d(); ++j) {
    if (per_attribute_n[j] == 0) {
      // No user sampled this attribute; the best unbiased guess is uniform.
      est[j].assign(domain_sizes_[j], 1.0 / domain_sizes_[j]);
      continue;
    }
    est[j] = oracles_[j]->EstimateFromCounts(counts[j], per_attribute_n[j]);
  }
  return est;
}

const fo::FrequencyOracle& Smp::oracle(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  return *oracles_[attribute];
}

}  // namespace ldpr::multidim
