#ifndef LDPR_MULTIDIM_SPL_H_
#define LDPR_MULTIDIM_SPL_H_

#include <memory>
#include <vector>

#include "fo/factory.h"
#include "fo/frequency_oracle.h"

namespace ldpr::multidim {

/// The naive Splitting (SPL) solution (Section 2.3.1): by sequential
/// composition, each user reports *all* d attributes, each sanitized with
/// budget eps/d. High estimation error; included as the baseline the paper
/// dismisses (and as a utility comparator in the examples).
class Spl {
 public:
  Spl(fo::Protocol protocol, std::vector<int> domain_sizes, double epsilon);

  /// Client side: one report per attribute, each at eps/d.
  std::vector<fo::Report> RandomizeUser(const std::vector<int>& record,
                                        Rng& rng) const;

  /// Server side: per-attribute estimates over all n users.
  std::vector<std::vector<double>> Estimate(
      const std::vector<std::vector<fo::Report>>& reports) const;

  const fo::FrequencyOracle& oracle(int attribute) const;
  int d() const { return static_cast<int>(oracles_.size()); }
  const std::vector<int>& domain_sizes() const { return domain_sizes_; }
  double per_attribute_epsilon() const { return per_attribute_epsilon_; }

 private:
  std::vector<int> domain_sizes_;
  double per_attribute_epsilon_;
  std::vector<std::unique_ptr<fo::FrequencyOracle>> oracles_;
};

}  // namespace ldpr::multidim

#endif  // LDPR_MULTIDIM_SPL_H_
