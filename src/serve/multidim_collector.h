#ifndef LDPR_SERVE_MULTIDIM_COLLECTOR_H_
#define LDPR_SERVE_MULTIDIM_COLLECTOR_H_

// Multidimensional front-end of the collection service: a tuple layout
// plus an estimator over one serve::Collector, whose lanes, block kernels,
// TotalsNow and `ldpr_ingest_*` telemetry it shares. The wire format
// (serve/multidim_wire) fixes the column plan:
//   - a tuple that is one unary-encoded vector (RS+FD / RS+RFD UE variants,
//     SPL over SUE/OUE) is one UE column of sum_j k_j bits — the scalar
//     memcpy path — whose counts split per attribute at seal;
//   - SPL over GRR/OLH/SS and RS+FD / RS+RFD over GRR stage one field into
//     each attribute's column, all in one block;
//   - SMP feeds only the sampled attribute's column, each its own block.
// Ingest is all-or-nothing, sealed results depend only on the multiset of
// accepted tuples, and seals are bit-identical to the solution's batch
// Estimate of the same tuples.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serve/collector.h"
#include "serve/multidim_wire.h"

namespace ldpr::serve {

/// Immutable per-epoch estimate of a multidimensional collection round.
struct MultidimSnapshot {
  long long epoch = -1;
  long long n = 0;  ///< accepted tuples
  std::vector<std::vector<double>> estimates;  ///< per-attribute frequencies
  IngestStats stats;
  /// Realized budget of this epoch's accepted tuples (every tuple charged
  /// fresh — the multidim front-end has no replay classification yet). SPL
  /// splits the budget over all d attributes, SMP charges the sampled one,
  /// and the fake-data kinds charge each attribute its *expected* exposure
  /// n/d at the amplified budget eps' = ln(d (e^eps - 1) + 1) — what an
  /// attacker who uncovers sampled attributes (Section 3.3) can exploit.
  privacy::LedgerReport ledger;
  /// Sequential composition over every epoch sealed so far, this included.
  privacy::LedgerReport cumulative_ledger;
};

class MultidimCollector final : public IngestSink {
 public:
  /// The solution object must outlive the collector. The estimates are the
  /// solutions' unbiased per-attribute ones (post-processing stays a
  /// caller concern); `options.metrics` exports the underlying Collector's
  /// telemetry, counted in tuples.
  MultidimCollector(const multidim::Spl& spl,
                    const CollectorOptions& options = {});
  MultidimCollector(const multidim::Smp& smp,
                    const CollectorOptions& options = {});
  MultidimCollector(const multidim::RsFd& rsfd,
                    const CollectorOptions& options = {});
  MultidimCollector(const multidim::RsRfd& rsrfd,
                    const CollectorOptions& options = {});

  /// Stages one wire-encoded tuple into lane `request.lane % lanes()`.
  /// Thread-safe; a malformed tuple is rejected kMalformed (counted, no
  /// accumulation). The multidim front-end has no replay classification
  /// yet, so request.user is accepted unclassified.
  IngestResult Ingest(const IngestRequest& request) override;

  /// Drains every lane, estimates per-attribute frequencies, freezes the
  /// ingest stats and resets the lanes for the next epoch. O(lanes * sum
  /// k_j) regardless of the number of tuples ingested.
  MultidimSnapshot Seal();

  int lanes() const { return collector_.lanes(); }
  int d() const { return static_cast<int>(domain_sizes_.size()); }
  const std::vector<int>& domain_sizes() const { return domain_sizes_; }

 private:
  enum class Kind { kSpl, kSmp, kRsFd, kRsRfd };
  /// How a tuple's fields map onto the Collector's columns.
  enum class Layout {
    kUeVector,      ///< the whole tuple is one report of a single UE column
    kPerAttribute,  ///< concat_j field_j, field j into column j (one block)
    kSampled,       ///< attr | field_attr, into block attr's one column
  };
  /// The columns (codecs, in attribute order) a solution's wire format
  /// stages into; `codecs` owns those the solution does not.
  struct Plan {
    Layout layout;
    std::vector<std::unique_ptr<fo::FrequencyOracle>> codecs;
    std::vector<const fo::FrequencyOracle*> columns;
  };
  /// Counting codecs: one UE column of sum_j k_j bits, or a GRR column per
  /// attribute.
  static Plan CodecPlan(bool ue_vector, const std::vector<int>& domain_sizes);
  /// The solution's own per-attribute oracles.
  template <typename Solution>
  static Plan OraclePlan(Layout layout, const Solution& solution);
  static std::vector<std::vector<const fo::FrequencyOracle*>> Blocks(
      Layout layout, const std::vector<const fo::FrequencyOracle*>& columns);

  MultidimCollector(Kind kind, std::vector<int> domain_sizes, Plan plan,
                    const CollectorOptions& options);
  /// Where the tuple's fields are under the layout; no block when its
  /// framing (length, attribute index) is malformed.
  Collector::Fields FieldsOf(std::span<const std::uint8_t> frame) const;
  /// Builds the eps report for `n` tuples with `attr_n[j]` surveys charged
  /// to attribute j (SPL/SMP; FD kinds use the expected-exposure closed
  /// form and ignore attr_n).
  privacy::LedgerReport MakeLedger(long long n,
                                   const std::vector<long long>& attr_n) const;

  Kind kind_;
  const multidim::Spl* spl_ = nullptr;
  const multidim::Smp* smp_ = nullptr;
  const multidim::RsFd* rsfd_ = nullptr;
  const multidim::RsRfd* rsrfd_ = nullptr;

  std::vector<int> domain_sizes_;
  Layout layout_;
  /// Per-attribute field widths (kPerAttribute / kSampled).
  std::vector<int> field_bits_;
  int tuple_bits_ = 0;  ///< kPerAttribute: the whole tuple's width
  int attr_width_ = 0;  ///< kSampled: attribute-index width
  std::vector<std::unique_ptr<fo::FrequencyOracle>> codecs_;
  Collector collector_;
  long long next_epoch_ = 0;
  double opened_at_ = 0.0;
  /// Cumulative ledger tallies, integer until report time.
  long long cumulative_n_ = 0;
  std::vector<long long> cumulative_attr_n_;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_MULTIDIM_COLLECTOR_H_
