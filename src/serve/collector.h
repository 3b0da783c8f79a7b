#ifndef LDPR_SERVE_COLLECTOR_H_
#define LDPR_SERVE_COLLECTOR_H_

// The streaming collection service's ingest core.
//
// Producers push wire-encoded reports into lock-striped lanes, each with
// its own mutex and IngestCounters, so producers sharded over lanes never
// contend. Lanes stage *fields* into *columns*: a column is one codec (an
// fo oracle with its per-lane fo::WireDecoder and fo::Aggregator), and
// columns that take a field from every tuple share a staging block of
// bitslice::kBlockRows rows holding their images side by side. A scalar
// Collector is one block of one column: Ingest validates a frame
// (WireDecoder::Validate) and memcpys it into the next row. A tuple
// collector (serve::MultidimCollector) names a block and the bit offset of
// the tuple's first field, and IngestTuple checks and copies every field
// (WireDecoder::StageField) before it commits the row — all under one lane
// mutex acquisition, so ingest is all-or-nothing and a seal never splits a
// tuple. Decode work is deferred to fo::Aggregator::AccumulateWireBlock,
// run per column when a block fills and at Drain() (flush-on-seal), which
// sums the lanes in O(lanes * k) and resets them in place.
//
// Determinism: block kernels are pinned bit-identical to the scalar decode
// path (fo_bitslice_exact_test) and merged support counts are integer sums,
// so sealed counts depend only on the multiset of accepted reports — never
// on lane assignment, producer interleaving, LDPR_THREADS or flush
// boundaries (serve_collector_test and serve_multidim_test pin this against
// batch aggregators fed the same reports).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/stats.h"
#include "fo/frequency_oracle.h"
#include "fo/wire.h"
#include "obs/metrics.h"
#include "privacy/accountant.h"
#include "serve/ingest.h"

namespace ldpr::serve {

struct CollectorOptions {
  /// Number of lock-striped ingest lanes; 0 = one per worker thread
  /// (core DefaultThreadCount). Lane count never affects sealed results.
  int lanes = 0;
  /// Telemetry sink; nullptr disables instrumentation entirely (the
  /// default, so benchmarks and tests that don't scrape pay nothing).
  /// When set, the collector exports its lane tallies as
  /// `ldpr_ingest_*` counters via a scrape callback — the per-report fast
  /// path is untouched; the tallies it already maintains ARE the sharded
  /// cells — and records per-flush decode-block latency/occupancy
  /// histograms (one sample per kBlockRows flush, never per report).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-epoch ingest statistics, frozen into the snapshot at seal time: the
/// epoch's drained lane tallies plus its wall time.
struct IngestStats : IngestCounters {
  double seconds = 0.0;             ///< epoch open -> seal wall time
  double reports_per_second = 0.0;  ///< reports / seconds (0 if degenerate)

  static IngestStats Over(const IngestCounters& tallies, double seconds) {
    return {tallies, seconds,
            seconds > 0.0 ? static_cast<double>(tallies.reports) / seconds
                          : 0.0};
  }
};

/// Immutable estimate of one sealed epoch.
struct EstimateSnapshot {
  long long epoch = -1;
  long long n = 0;                  ///< accepted reports in the epoch
  std::vector<long long> counts;    ///< merged support counts, size k
  std::vector<double> frequencies;  ///< raw Eq. (2) estimate
  std::vector<double> consistent;   ///< Norm-Sub post-processed estimate
  IngestStats stats;
  /// Realized budget of this epoch alone: fresh randomizations charged eps,
  /// recognized replays charged 0 (filled at seal by the longitudinal
  /// pipeline's replay classification).
  privacy::LedgerReport ledger;
  /// Sequential composition over every epoch sealed so far, this one
  /// included.
  privacy::LedgerReport cumulative_ledger;
};

/// Lock-striped ingest state over one or more codec columns. The oracles
/// must outlive the collector.
class Collector final : public IngestSink {
 public:
  /// A scalar collector: one block of one column, decoded by `oracle`.
  explicit Collector(const fo::FrequencyOracle& oracle,
                     const CollectorOptions& options = {});
  /// A tuple collector: blocks[b] lists the column codecs of staging block
  /// b, in the order a tuple packs their fields. Feed it with IngestTuple.
  Collector(const std::vector<std::vector<const fo::FrequencyOracle*>>& blocks,
            const CollectorOptions& options = {});
  ~Collector() override;

  /// Validates one wire-encoded report — the whole frame is the field of
  /// block 0's one column — into lane `request.lane % lanes()` and stages
  /// it for that lane's aggregator. Thread-safe; producers that use
  /// distinct lanes never contend. A malformed frame comes back kMalformed
  /// (counted, nothing accumulated); the bare Collector imposes no other
  /// admission rule, so request.user is accepted unclassified.
  IngestResult Ingest(const IngestRequest& request) override;

  /// Ingest with an admission gate: `gate(request, tallies)` runs under the
  /// lane mutex after frame validation and before staging, returning the
  /// RejectReason to refuse with (kNone admits). Validation first means a
  /// malformed frame is always kMalformed, whatever the gate would say; the
  /// gate running pre-staging means a refused frame never reaches an
  /// aggregator. `tallies` are the lane's own: whatever the gate counts
  /// there drains at the same cut as the lane's counts. This is the
  /// extension point the longitudinal pipeline's epoch and replay
  /// classification plugs into; gates must not touch the lane otherwise
  /// (its mutex is held) and must order any locks of their own after it.
  template <typename Gate>
  IngestResult IngestGated(const IngestRequest& request, Gate&& gate) {
    Lane& lane = LaneFor(request.lane);
    std::lock_guard<std::mutex> guard(lane.mutex);
    Block& block = lane.blocks.front();
    if (!block.columns.front().decoder.Validate(request.frame)) {
      return Reject(lane, RejectReason::kMalformed);
    }
    const RejectReason verdict = gate(request, lane.tallies);
    if (verdict != RejectReason::kNone) return Reject(lane, verdict);
    // Stage the admitted frame; all decode work happens at flush
    // (AccumulateWireBlock) when the block fills or the epoch seals.
    std::memcpy(block.row(), request.frame.data(), request.frame.size());
    Commit(lane, block);
    return Accept(lane, request);
  }

  /// A tuple's fields: one per column of staging block `block`, packed
  /// back to back from bit `bit_offset`. block -1 marks a tuple whose
  /// framing the caller found malformed.
  struct Fields {
    int block = -1;
    int bit_offset = 0;
  };

  /// Tuple ingest: checks every field while copying its image into the
  /// block's next row (WireDecoder::StageField), then commits the row. A
  /// bad field (or block -1) is counted kMalformed and commits nothing. The
  /// caller has checked the frame's length (fo::ExactWireSize).
  IngestResult IngestTuple(const IngestRequest& request, Fields fields);

  /// Closed-form lane feed for the fast simulation profile: draws the
  /// aggregate support counts of `histogram` directly into block 0's column
  /// of lane `lane % lanes()` (fo::Aggregator::AccumulateHistogram),
  /// bypassing the wire. Counted as histogram-total reports of
  /// report_bytes() each.
  void IngestHistogram(int lane, const std::vector<long long>& histogram,
                       Rng& rng);

  /// Sums every lane's counts/tallies and resets the lanes in place for
  /// the next epoch. O(lanes * sum of column k). Used by the epoch
  /// pipelines' Seal; public for one-shot collections (no epoch) and
  /// tests.
  struct Drained {
    /// Merged support counts, column after column in construction order
    /// (size: sum of the column oracles' k).
    std::vector<long long> counts;
    long long n = 0;  ///< accepted reports (tuples)
    std::vector<long long> column_n;  ///< reports each column accumulated
    IngestCounters tallies;
  };
  Drained Drain();

  /// Lifetime ingest totals: everything drained in past epochs plus the
  /// live lane tallies right now. This is what the telemetry callback
  /// exports, so a scrape mid-epoch is exact (briefly takes each lane
  /// mutex) and a scrape after the last seal equals the sum of all sealed
  /// snapshots' IngestCounters.
  IngestCounters TotalsNow() const;

  int lanes() const { return static_cast<int>(lanes_.size()); }
  /// The exact buffer size Ingest accepts (block 0's first column).
  std::size_t report_bytes() const { return report_bytes_; }
  /// Block 0's first column codec (a scalar collector's only one).
  const fo::FrequencyOracle& oracle() const { return oracle_; }
  const CollectorOptions& options() const { return options_; }

  /// Rows currently staged (validated, not yet decoded) in block 0 of
  /// lane `lane % lanes()`. Exposed for flush-boundary tests.
  int staged(int lane) const;

 private:
  /// One codec's per-lane state.
  struct Column {
    /// Byte offset of the column's image slot within a block row.
    std::size_t offset;
    fo::WireDecoder decoder;
    std::unique_ptr<fo::Aggregator> aggregator;
  };

  /// kBlockRows rows of `stride` bytes plus kRowTailSlack; a row holds one
  /// image per column, back to back. Cache-line aligned like Lane: its
  /// `staged` counter is written on every accepted report.
  struct alignas(64) Block {
    explicit Block(const std::vector<const fo::FrequencyOracle*>& oracles);

    std::uint8_t* row() {
      return staging.data() + static_cast<std::size_t>(staged) * stride;
    }

    std::size_t stride = 0;
    std::vector<std::uint8_t> staging;
    int staged = 0;
    std::vector<Column> columns;
  };

  /// Cache-line isolated (alignas pads sizeof to a 64-byte multiple too):
  /// producers pinned to disjoint lanes touch disjoint lines, so the lane
  /// mutexes and hot tallies/staged counters never false-share — without
  /// this, adjacent heap-allocated lanes can land on one line and ingest
  /// throughput stops scaling with producer threads.
  struct alignas(64) Lane {
    Lane(const std::vector<std::vector<const fo::FrequencyOracle*>>& oracles,
         int index);

    mutable std::mutex mutex;
    std::vector<Block> blocks;
    /// IngestTuple's copy of the tuple, kRowTailSlack bytes longer, so
    /// field reads may load whole words (WireDecoder::StageField).
    std::vector<std::uint8_t> tuple;
    IngestCounters tallies;
    /// Telemetry shard hint: flush histograms record on the lane's own
    /// shard, so lanes never share a histogram cache line either.
    const int index;
  };
  static_assert(alignof(Lane) >= 64,
                "lanes must start on their own cache line");
  static_assert(sizeof(Lane) % 64 == 0,
                "lane padding must cover whole cache lines");

  Lane& LaneFor(int hint) {
    return *lanes_[static_cast<std::size_t>(hint) % lanes_.size()];
  }
  /// Publishes the block's staged row; flushes a full block. Caller holds
  /// the lane mutex.
  void Commit(Lane& lane, Block& block) {
    if (++block.staged == fo::bitslice::kBlockRows) FlushLocked(lane, block);
  }
  static IngestResult Accept(Lane& lane, const IngestRequest& request) {
    ++lane.tallies.reports;
    lane.tallies.bytes += static_cast<long long>(request.frame.size());
    return IngestResult::Accepted();
  }
  static IngestResult Reject(Lane& lane, RejectReason reason) {
    CountReject(lane.tallies, reason);
    return IngestResult::Rejected(reason);
  }
  /// Decodes the block's staged rows into its columns' aggregators. Caller
  /// holds the lane mutex.
  void FlushLocked(Lane& lane, Block& block);

  const fo::FrequencyOracle& oracle_;
  CollectorOptions options_;
  std::size_t report_bytes_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  /// Tallies of every past Drain() (Drain resets the lanes, so lifetime
  /// totals have to accumulate somewhere for mid-run scrapes).
  mutable std::mutex drained_mutex_;
  IngestCounters drained_totals_;

  /// Set iff options.metrics != nullptr.
  struct Obs {
    obs::MetricsRegistry* registry = nullptr;
    std::shared_ptr<obs::Histogram> decode_block_seconds;
    std::shared_ptr<obs::Histogram> decode_block_rows;
    long long callback_id = 0;
  };
  std::unique_ptr<Obs> obs_;
};

// The epoch lifecycle over a Collector is serve::LongitudinalCollector
// (serve/longitudinal.h).

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_COLLECTOR_H_
