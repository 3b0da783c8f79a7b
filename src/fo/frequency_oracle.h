#ifndef LDPR_FO_FREQUENCY_ORACLE_H_
#define LDPR_FO_FREQUENCY_ORACLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"

namespace ldpr::fo {

/// The five LDP frequency-estimation protocols studied by the paper
/// (Section 2.2).
enum class Protocol {
  kGrr,  ///< Generalized Randomized Response
  kOlh,  ///< Optimal Local Hashing
  kSs,   ///< omega-Subset Selection
  kSue,  ///< Symmetric Unary Encoding (Basic One-time RAPPOR)
  kOue,  ///< Optimal Unary Encoding
};

/// Short display name ("GRR", "OLH", "SS", "SUE", "OUE").
const char* ProtocolName(Protocol protocol);

/// All five protocols, in the paper's order.
std::vector<Protocol> AllProtocols();

/// One sanitized user report. Protocols use different encodings, so the
/// struct carries one field per encoding; only the fields relevant to the
/// emitting protocol are populated.
struct Report {
  /// GRR: the perturbed value in [0, k). OLH: the perturbed *hashed* value
  /// in [0, g).
  int value = -1;
  /// OLH only: index of the hash function drawn from the universal family.
  std::uint64_t hash_seed = 0;
  /// SS only: the reported subset Omega (distinct values in [0, k)).
  std::vector<int> subset;
  /// SUE/OUE only: the sanitized unary-encoded vector of length k.
  std::vector<std::uint8_t> bits;
};

class Aggregator;

/// Receives sanitized reports from BatchRandomize, one call per user. The
/// Report reference is only valid for the duration of the call:
/// implementations reuse a single scratch Report across users to avoid
/// per-user heap traffic, so sinks that need to keep a report must copy it.
using ReportSink = std::function<void(const Report&)>;

/// Interface for a local frequency-estimation protocol ("frequency oracle").
///
/// Each implementation provides the client-side randomizer, the server-side
/// unbiased estimator of Section 2.2 (Eq. 2 with protocol-specific p and q),
/// and the single-report "plausible deniability" adversary of Section 3.2.1.
class FrequencyOracle {
 public:
  /// `k` is the attribute domain size (>= 2); `epsilon` the LDP budget (> 0).
  FrequencyOracle(int k, double epsilon);
  virtual ~FrequencyOracle() = default;

  FrequencyOracle(const FrequencyOracle&) = delete;
  FrequencyOracle& operator=(const FrequencyOracle&) = delete;

  /// Client side: sanitizes the true value (in [0, k)) into a report.
  virtual Report Randomize(int value, Rng& rng) const = 0;

  /// Client side, batched: sanitizes values[0..count) in order, handing each
  /// report to `sink`. Draws from `rng` exactly like `count` successive
  /// Randomize calls (bit-identical stream), but overrides reuse one scratch
  /// Report so the batch allocates O(1) instead of O(count) heap blocks.
  virtual void BatchRandomize(const int* values, std::size_t count, Rng& rng,
                              const ReportSink& sink) const;
  void BatchRandomize(const std::vector<int>& values, Rng& rng,
                      const ReportSink& sink) const;

  /// Streaming server-side aggregation state for this oracle: each protocol
  /// returns its own Aggregator subclass, which supplies the
  /// AccumulateWireBlock decode kernel (GRR/SS field tallies, batched OLH
  /// hashing, UE bit-column sums).
  virtual std::unique_ptr<Aggregator> MakeAggregator() const = 0;

  /// Server side: adds the report's support to `counts` (size k). A value v
  /// is "supported" when the report is consistent with v under the protocol's
  /// encoding (equality for GRR, hash match for OLH, subset membership for
  /// SS, set bit for UE).
  virtual void AccumulateSupport(const Report& report,
                                 std::vector<long long>* counts) const = 0;

  /// Adversary of Section 3.2.1: predicts the user's true value from one
  /// report. Ties are broken uniformly at random.
  virtual int AttackPredict(const Report& report, Rng& rng) const = 0;

  /// Unbiased frequency estimate from support counts over n reports:
  /// fhat(v) = (C(v)/n - q) / (p - q)  (Eq. 2).
  std::vector<double> EstimateFromCounts(const std::vector<long long>& counts,
                                         long long n) const;

  /// Per-estimate variance of Eq. 2 at true frequency f (Wang et al. 2017):
  /// Var = q(1-q) / (n (p-q)^2) + f (1 - p - q) / (n (p - q)).
  double EstimatorVariance(long long n, double f = 0.0) const;

  virtual Protocol protocol() const = 0;

  int k() const { return k_; }
  double epsilon() const { return epsilon_; }
  /// Probability that the "true" position is reported/supported.
  double p() const { return p_; }
  /// Probability that any other fixed position is reported/supported.
  double q() const { return q_; }

 protected:
  void SetProbabilities(double p, double q);

 private:
  int k_;
  double epsilon_;
  double p_ = 0.0;
  double q_ = 0.0;
};

/// Streaming server-side aggregator: support counts plus the number of
/// accumulated reports, nothing else. Feed it blocks of wire frames
/// (AccumulateWireBlock — the path every served report takes), single
/// reports (Accumulate, the scalar reference), or whole true-value
/// histograms (AccumulateHistogram); shard-local aggregators Merge into one
/// before Estimate. No per-user Report vector is ever materialized on any
/// of these paths.
///
/// Obtain instances from FrequencyOracle::MakeAggregator(); the oracle must
/// outlive the aggregator.
class Aggregator {
 public:
  explicit Aggregator(const FrequencyOracle& oracle);
  virtual ~Aggregator() = default;

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Server side: folds one report's support into the counts with the
  /// oracle's scalar AccumulateSupport walk — the reference the block
  /// kernels are pinned against (WireDecoder::DecodeInto feeds it).
  void Accumulate(const Report& report);

  /// Closed-form batch: draws the aggregate support counts of
  /// histogram[v]-many users holding each value v in O(k) RNG draws total,
  /// instead of simulating the n users one by one. The default samples each
  /// cell's count as Binomial(histogram[v], p) + Binomial(n - histogram[v],
  /// q), which is exactly the marginal distribution of the scalar path for
  /// every protocol (cells are supported with probability p/q independently
  /// across users); cross-cell correlations of one user's SS subset / OLH
  /// preimage / UE bit vector are not reproduced, which leaves every
  /// per-cell estimate, its variance, and any expected-MSE metric
  /// distribution-exact. GRR overrides this with a sum-preserving
  /// multinomial that is exact jointly as well.
  virtual void AccumulateHistogram(const std::vector<long long>& histogram,
                                   Rng& rng);

  /// Closed-form batch for a Bernoulli(rate)-thinned population: draws the
  /// sub-histogram Binomial(histogram[v], rate) per cell — the users that
  /// actually reach this oracle, e.g. the 1/d uniform attribute samplers of
  /// SMP — then folds its closed-form support counts in via
  /// AccumulateHistogram. Returns the number of thinned users accumulated,
  /// which is also what n() grows by.
  long long AccumulateSubsampledHistogram(
      const std::vector<long long>& histogram, double rate, Rng& rng);

  /// Decodes and accumulates a block of pre-validated wire frames — the
  /// serving layer's bitsliced hot path. `frames` points at `count` rows of
  /// `stride` bytes; each row begins with one exact SerializeReport image
  /// (WireDecoder::Validate-accepted) and the caller must guarantee
  ///   - stride >= bitslice::RowStride(frame size) (the bytes after an
  ///     image are never counted: kernels mask them off),
  ///   - bitslice::kRowTailSlack readable bytes after the last row
  /// (serve::Collector's staging blocks are laid out exactly like this,
  /// several columns' images side by side in one row).
  /// Every protocol implements it as a block kernel (GRR/SS field tallies,
  /// batched OLH hashing, UE bit-column sums), and each produces
  /// bit-identical counts()/n() to deserializing the `count` frames and
  /// folding them in with the oracle's scalar AccumulateSupport — pinned by
  /// fo_bitslice_exact_test.
  virtual void AccumulateWireBlock(const std::uint8_t* frames,
                                   std::size_t stride, int count) = 0;

  /// Folds another aggregator of the same protocol/domain into this one.
  void Merge(const Aggregator& other);

  /// Empties the aggregator in place — counts and n — so it reads like a
  /// fresh MakeAggregator() result while keeping its buffers
  /// (serve::Collector resets its lanes this way at every seal).
  void Reset();

  /// Unbiased Eq. (2) estimate over everything accumulated so far.
  std::vector<double> Estimate() const;

  const std::vector<long long>& counts() const { return counts_; }
  long long n() const { return n_; }
  const FrequencyOracle& oracle() const { return oracle_; }

 protected:
  const FrequencyOracle& oracle_;
  std::vector<long long> counts_;
  long long n_ = 0;
};

}  // namespace ldpr::fo

#endif  // LDPR_FO_FREQUENCY_ORACLE_H_
