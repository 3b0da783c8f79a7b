#include "serve/multidim_collector.h"

#include "fo/factory.h"
#include "fo/wire.h"

namespace ldpr::serve {

MultidimCollector::Plan MultidimCollector::CodecPlan(
    bool ue_vector, const std::vector<int>& domain_sizes) {
  // These columns only count support, which never reads the oracle's p/q:
  // any budget will do.
  Plan plan{ue_vector ? Layout::kUeVector : Layout::kPerAttribute, {}, {}};
  if (ue_vector) {
    int bits = 0;
    for (int k : domain_sizes) bits += k;
    plan.codecs.push_back(fo::MakeOracle(fo::Protocol::kOue, bits, 1.0));
  } else {
    for (int k : domain_sizes) {
      plan.codecs.push_back(fo::MakeOracle(fo::Protocol::kGrr, k, 1.0));
    }
  }
  for (const auto& codec : plan.codecs) plan.columns.push_back(codec.get());
  return plan;
}

template <typename Solution>
MultidimCollector::Plan MultidimCollector::OraclePlan(
    Layout layout, const Solution& solution) {
  Plan plan{layout, {}, {}};
  for (int j = 0; j < solution.d(); ++j) {
    plan.columns.push_back(&solution.oracle(j));
  }
  return plan;
}

MultidimCollector::MultidimCollector(Kind kind, std::vector<int> domain_sizes,
                                     Plan plan,
                                     const CollectorOptions& options)
    : kind_(kind),
      domain_sizes_(std::move(domain_sizes)),
      layout_(plan.layout),
      codecs_(std::move(plan.codecs)),
      collector_(Blocks(plan.layout, plan.columns), options) {
  for (const fo::FrequencyOracle* column : plan.columns) {
    field_bits_.push_back(fo::SerializedReportBits(*column));
    tuple_bits_ += field_bits_.back();
  }
  attr_width_ = fo::CeilLog2(d());
  opened_at_ = MonotonicSeconds();
  cumulative_attr_n_.assign(domain_sizes_.size(), 0);
}

std::vector<std::vector<const fo::FrequencyOracle*>> MultidimCollector::Blocks(
    Layout layout, const std::vector<const fo::FrequencyOracle*>& columns) {
  // SMP stages one attribute per tuple, so each column is its own block;
  // otherwise every tuple fills all columns of one shared block.
  if (layout != Layout::kSampled) return {columns};
  std::vector<std::vector<const fo::FrequencyOracle*>> blocks;
  for (const fo::FrequencyOracle* column : columns) blocks.push_back({column});
  return blocks;
}

MultidimCollector::MultidimCollector(const multidim::Spl& spl,
                                     const CollectorOptions& options)
    : MultidimCollector(
          Kind::kSpl, spl.domain_sizes(),
          spl.oracle(0).protocol() == fo::Protocol::kSue ||
                  spl.oracle(0).protocol() == fo::Protocol::kOue
              ? CodecPlan(true, spl.domain_sizes())
              : OraclePlan(Layout::kPerAttribute, spl),
          options) {
  spl_ = &spl;
}

MultidimCollector::MultidimCollector(const multidim::Smp& smp,
                                     const CollectorOptions& options)
    : MultidimCollector(Kind::kSmp, smp.domain_sizes(),
                        OraclePlan(Layout::kSampled, smp), options) {
  smp_ = &smp;
}

MultidimCollector::MultidimCollector(const multidim::RsFd& rsfd,
                                     const CollectorOptions& options)
    : MultidimCollector(Kind::kRsFd, rsfd.domain_sizes(),
                        CodecPlan(multidim::IsUeVariant(rsfd.variant()),
                                  rsfd.domain_sizes()),
                        options) {
  rsfd_ = &rsfd;
}

MultidimCollector::MultidimCollector(const multidim::RsRfd& rsrfd,
                                     const CollectorOptions& options)
    : MultidimCollector(
          Kind::kRsRfd, rsrfd.domain_sizes(),
          CodecPlan(rsrfd.variant() != multidim::RsRfdVariant::kGrr,
                    rsrfd.domain_sizes()),
          options) {
  rsrfd_ = &rsrfd;
}

IngestResult MultidimCollector::Ingest(const IngestRequest& request) {
  // A single UE column takes the whole tuple as one report — every bit
  // pattern of the right width is valid: the scalar Validate + memcpy path.
  return layout_ == Layout::kUeVector
             ? collector_.Ingest(request)
             : collector_.IngestTuple(request, FieldsOf(request.frame));
}

Collector::Fields MultidimCollector::FieldsOf(
    std::span<const std::uint8_t> frame) const {
  if (layout_ == Layout::kPerAttribute) {
    if (!fo::ExactWireSize(frame, tuple_bits_)) return {};
    return {0, 0};
  }
  // SMP: the attribute index determines the tuple's width; every valid
  // tuple carries at least one report bit past it. Widths compare in 64-bit
  // so absurdly large buffers reject cleanly instead of overflowing.
  if (frame.size() * 8ull <= static_cast<unsigned long long>(attr_width_)) {
    return {};
  }
  std::uint64_t head = 0;  // the index is the top attr_width_ bits
  const int head_bytes = (attr_width_ + 7) / 8;
  for (int i = 0; i < head_bytes; ++i) head = head << 8 | frame[i];
  const int attribute =
      static_cast<int>(head >> (head_bytes * 8 - attr_width_));
  if (attribute >= d() ||
      !fo::ExactWireSize(frame, attr_width_ + field_bits_[attribute])) {
    return {};
  }
  return {attribute, attr_width_};
}

MultidimSnapshot MultidimCollector::Seal() {
  const double now = MonotonicSeconds();
  MultidimSnapshot snapshot;
  snapshot.epoch = next_epoch_++;
  const double seconds = now - opened_at_;
  opened_at_ = now;

  std::vector<std::vector<long long>> counts(d());
  std::vector<long long> attr_n;
  {
    // Release the drained buffers before the estimates are allocated:
    // freed after them, they sat at the top of the heap and malloc trimmed
    // and regrew it on every seal.
    const Collector::Drained drained = collector_.Drain();
    snapshot.n = drained.n;
    snapshot.stats = IngestStats::Over(drained.tallies, seconds);
    // Whether one UE column spans every attribute or each attribute has
    // its own column, the drained counts run attribute after attribute.
    auto next = drained.counts.begin();
    for (int j = 0; j < d(); ++j) {
      counts[j].assign(next, next + domain_sizes_[j]);
      next += domain_sizes_[j];
    }
    // SPL randomizes every attribute per tuple; SMP only the sampled one.
    attr_n = layout_ == Layout::kSampled
                 ? drained.column_n
                 : std::vector<long long>(d(), drained.n);
  }
  if (snapshot.n > 0) {
    switch (kind_) {
      case Kind::kSpl:
      case Kind::kSmp:
        snapshot.estimates.resize(d());
        for (int j = 0; j < d(); ++j) {
          if (attr_n[j] == 0) {
            // No user sampled this attribute (SMP); best unbiased guess is
            // uniform — mirrors Smp::Estimate.
            snapshot.estimates[j].assign(domain_sizes_[j],
                                         1.0 / domain_sizes_[j]);
          } else {
            const fo::FrequencyOracle& oracle =
                kind_ == Kind::kSpl ? spl_->oracle(j) : smp_->oracle(j);
            snapshot.estimates[j] =
                oracle.EstimateFromCounts(counts[j], attr_n[j]);
          }
        }
        break;
      case Kind::kRsFd:
        snapshot.estimates =
            rsfd_->EstimateFromSupportCounts(counts, snapshot.n);
        break;
      case Kind::kRsRfd:
        snapshot.estimates =
            rsrfd_->EstimateFromSupportCounts(counts, snapshot.n);
        break;
    }
  }

  cumulative_n_ += snapshot.n;
  for (int j = 0; j < d(); ++j) cumulative_attr_n_[j] += attr_n[j];
  snapshot.ledger = MakeLedger(snapshot.n, attr_n);
  snapshot.cumulative_ledger = MakeLedger(cumulative_n_, cumulative_attr_n_);
  return snapshot;
}

privacy::LedgerReport MultidimCollector::MakeLedger(
    long long n, const std::vector<long long>& attr_n) const {
  privacy::LedgerReport report;
  switch (kind_) {
    case Kind::kSpl: {
      privacy::Accountant ledger(d());
      ledger.RecordSplBulk(spl_->per_attribute_epsilon() * d(), n);
      report = ledger.MakeReport();
      report.fresh = n;  // surveys, not per-attribute randomizations
      break;
    }
    case Kind::kSmp: {
      privacy::Accountant ledger(d());
      for (int j = 0; j < d(); ++j) {
        ledger.RecordSmpBulk(j, smp_->epsilon(), attr_n[j]);
      }
      report = ledger.MakeReport();
      break;
    }
    case Kind::kRsFd:
    case Kind::kRsRfd: {
      // The sampled attribute is hidden on the wire, so per-attribute
      // exposure is the expectation: n/d surveys sampled attribute j, each
      // randomized at the amplified budget.
      const double epsilon =
          kind_ == Kind::kRsFd ? rsfd_->epsilon() : rsrfd_->epsilon();
      const double amplified = kind_ == Kind::kRsFd
                                   ? rsfd_->amplified_epsilon()
                                   : rsrfd_->amplified_epsilon();
      report.total_epsilon = static_cast<double>(n) * epsilon;
      const double expected =
          static_cast<double>(n) / static_cast<double>(d()) * amplified;
      report.per_attribute.assign(d(), expected);
      report.worst_attribute_epsilon = expected;
      if (n > 0) report.amplified_epsilon = amplified;
      report.fresh = n;
      break;
    }
  }
  return report;
}

}  // namespace ldpr::serve
