#include "multidim/spl.h"

#include "core/check.h"

namespace ldpr::multidim {

Spl::Spl(fo::Protocol protocol, std::vector<int> domain_sizes, double epsilon)
    : domain_sizes_(std::move(domain_sizes)) {
  LDPR_REQUIRE(domain_sizes_.size() >= 2,
               "SPL targets multidimensional data (d >= 2)");
  LDPR_REQUIRE(epsilon > 0.0, "SPL requires epsilon > 0");
  per_attribute_epsilon_ = epsilon / static_cast<double>(domain_sizes_.size());
  oracles_.reserve(domain_sizes_.size());
  for (int k : domain_sizes_) {
    oracles_.push_back(fo::MakeOracle(protocol, k, per_attribute_epsilon_));
  }
}

std::vector<fo::Report> Spl::RandomizeUser(const std::vector<int>& record,
                                           Rng& rng) const {
  LDPR_REQUIRE(static_cast<int>(record.size()) == d(),
               "record has " << record.size() << " values, expected " << d());
  std::vector<fo::Report> out(d());
  for (int j = 0; j < d(); ++j) {
    out[j] = oracles_[j]->Randomize(record[j], rng);
  }
  return out;
}

std::vector<std::vector<double>> Spl::Estimate(
    const std::vector<std::vector<fo::Report>>& reports) const {
  LDPR_REQUIRE(!reports.empty(), "Estimate requires at least one report");
  std::vector<std::vector<long long>> counts(d());
  for (int j = 0; j < d(); ++j) counts[j].assign(domain_sizes_[j], 0);
  for (const auto& user : reports) {
    LDPR_REQUIRE(static_cast<int>(user.size()) == d(),
                 "user report width mismatch");
    for (int j = 0; j < d(); ++j) {
      oracles_[j]->AccumulateSupport(user[j], &counts[j]);
    }
  }
  std::vector<std::vector<double>> est(d());
  for (int j = 0; j < d(); ++j) {
    est[j] = oracles_[j]->EstimateFromCounts(
        counts[j], static_cast<long long>(reports.size()));
  }
  return est;
}

const fo::FrequencyOracle& Spl::oracle(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  return *oracles_[attribute];
}

}  // namespace ldpr::multidim
