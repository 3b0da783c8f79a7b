#ifndef LDPR_MULTIDIM_RSFD_H_
#define LDPR_MULTIDIM_RSFD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"

namespace ldpr::multidim {

/// The five RS+FD protocol variants evaluated by the paper (Section 2.3.2):
/// the local randomizer M applied to the sampled attribute, combined with
/// the fake-data generation procedure for the non-sampled attributes.
enum class RsFdVariant {
  kGrr,   ///< GRR on the sampled value; uniform fake values elsewhere.
  kSueZ,  ///< SUE on the sampled value; SUE applied to zero vectors.
  kSueR,  ///< SUE on the sampled value; SUE applied to random one-hots.
  kOueZ,  ///< OUE on the sampled value; OUE applied to zero vectors.
  kOueR,  ///< OUE on the sampled value; OUE applied to random one-hots.
};

const char* RsFdVariantName(RsFdVariant variant);

/// True when the variant's payload is unary-encoded bit vectors.
bool IsUeVariant(RsFdVariant variant);

/// True for the zero-vector fake-data variants (UE-z).
bool IsZeroFakeVariant(RsFdVariant variant);

/// One user's sanitized output tuple y = [y_1, ..., y_d]. Exactly one
/// attribute holds an eps'-LDP report of the true value; all others hold
/// fake data indistinguishable (by design) from it.
///
/// `sampled_attribute` records the ground truth for attack evaluation only;
/// an honest aggregator never sees it.
struct MultidimReport {
  int sampled_attribute = -1;
  /// GRR-based variants: one categorical value per attribute.
  std::vector<int> values;
  /// UE-based variants: one sanitized bit vector per attribute.
  std::vector<std::vector<std::uint8_t>> bits;
};

/// Random Sampling Plus Fake Data (Arcolezi et al., CIKM 2021; Section 2.3.2).
///
/// Client: sample one attribute j uniformly, sanitize v_j with the local
/// randomizer at the amplified budget eps' = ln(d(e^eps - 1) + 1), and emit
/// uniform fake data for every other attribute. Server: the variant-specific
/// unbiased estimators of Section 2.3.2 remove both the randomizer's and the
/// fake data's bias.
class RsFd {
 public:
  RsFd(RsFdVariant variant, std::vector<int> domain_sizes, double epsilon);

  /// Client side (one user): `record` holds one value per attribute.
  MultidimReport RandomizeUser(const std::vector<int>& record, Rng& rng) const;

  /// Client side with a caller-chosen sampled attribute. Used by the
  /// multi-survey profiling attack, which controls the without-replacement
  /// sampling across surveys (Section 4.4).
  MultidimReport RandomizeUserWithAttribute(const std::vector<int>& record,
                                            int sampled_attribute,
                                            Rng& rng) const;

  /// Server side: unbiased per-attribute frequency estimates from n reports.
  std::vector<std::vector<double>> Estimate(
      const std::vector<MultidimReport>& reports) const;

  /// The Section 2.3.2 estimators applied to pre-accumulated support counts
  /// over n reports — the streaming half of Estimate.
  std::vector<std::vector<double>> EstimateFromSupportCounts(
      const std::vector<std::vector<long long>>& counts, long long n) const;

  /// Raw support counts per attribute (exposed for estimator tests).
  std::vector<std::vector<long long>> SupportCounts(
      const std::vector<MultidimReport>& reports) const;

  RsFdVariant variant() const { return variant_; }
  int d() const { return static_cast<int>(domain_sizes_.size()); }
  const std::vector<int>& domain_sizes() const { return domain_sizes_; }
  double epsilon() const { return epsilon_; }
  double amplified_epsilon() const { return amplified_epsilon_; }

  /// Randomizer probabilities at the amplified budget for attribute j
  /// (GRR's depend on k_j; UE's do not).
  double p(int attribute) const;
  double q(int attribute) const;

 private:
  RsFdVariant variant_;
  std::vector<int> domain_sizes_;
  double epsilon_;
  double amplified_epsilon_;
  double ue_p_ = 0.0;  // UE variants only
  double ue_q_ = 0.0;
};

}  // namespace ldpr::multidim

#endif  // LDPR_MULTIDIM_RSFD_H_
