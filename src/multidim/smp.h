#ifndef LDPR_MULTIDIM_SMP_H_
#define LDPR_MULTIDIM_SMP_H_

#include <memory>
#include <vector>

#include "fo/factory.h"
#include "fo/frequency_oracle.h"

namespace ldpr::multidim {

/// One SMP report: the user discloses which attribute was sampled along
/// with the eps-LDP report for it.
struct SmpReport {
  int attribute = -1;
  fo::Report report;
};

/// The Sampling (SMP) solution (Section 2.3.1): each user samples one of the
/// d attributes uniformly at random and spends the *whole* privacy budget
/// eps on it. The sampled attribute is sent in the clear — the root cause of
/// the re-identification risk studied in Section 3.2.
class Smp {
 public:
  Smp(fo::Protocol protocol, std::vector<int> domain_sizes, double epsilon);

  /// Client side, uniform attribute sampling.
  SmpReport RandomizeUser(const std::vector<int>& record, Rng& rng) const;

  /// Client side with a caller-chosen attribute. The multi-survey profiling
  /// attack drives attribute selection itself (without replacement for the
  /// uniform privacy metric, with replacement for the non-uniform one).
  SmpReport RandomizeUserAttribute(const std::vector<int>& record,
                                   int attribute, Rng& rng) const;

  /// Server side: per-attribute estimates; each attribute uses only the
  /// reports that sampled it.
  std::vector<std::vector<double>> Estimate(
      const std::vector<SmpReport>& reports) const;

  const fo::FrequencyOracle& oracle(int attribute) const;
  int d() const { return static_cast<int>(oracles_.size()); }
  const std::vector<int>& domain_sizes() const { return domain_sizes_; }
  double epsilon() const { return epsilon_; }
  fo::Protocol protocol() const { return protocol_; }

 private:
  fo::Protocol protocol_;
  std::vector<int> domain_sizes_;
  double epsilon_;
  std::vector<std::unique_ptr<fo::FrequencyOracle>> oracles_;
};

}  // namespace ldpr::multidim

#endif  // LDPR_MULTIDIM_SMP_H_
