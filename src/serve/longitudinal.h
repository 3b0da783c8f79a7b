#ifndef LDPR_SERVE_LONGITUDINAL_H_
#define LDPR_SERVE_LONGITUDINAL_H_

// Longitudinal collection pipeline: the cross-epoch state the paper's
// Section 6 is about, layered over the per-epoch Collector.
//
// A LongitudinalCollector owns one Collector (the lock-striped per-epoch
// lanes) plus everything that survives a seal:
//
//   * an EpochSchedule mapping epochs onto fixed/sliding/overlapping
//     estimation windows, maintained as a running count delta — the newest
//     epoch's counts are added, the epoch sliding out is subtracted — so a
//     window seal costs O(k), never a recompute over the window's reports.
//     Counts are integers, so the delta path is bit-identical to
//     recomputing each window from scratch (serve_longitudinal_test pins
//     this);
//   * the per-user table (serve/admission.h UserTable): every accepted
//     attributed frame is hashed and checked against the user's earlier
//     frames. A frame already seen from that user is a memoized replay of a
//     RAPPOR-style permanent answer — it still counts toward the estimate
//     (the server cannot tell a replay apart statistically, only
//     ledger-wise) but is charged eps = 0. A socket server in front of the
//     collector runs its per-user admission on the same table
//     (user_table()), so a record touches one user slot;
//   * the cumulative privacy ledger, rebuilt at every seal through
//     privacy::Accountant from integer fresh/memoized totals and converted
//     to eps by one bulk multiply, so the reported budgets are exact and
//     LDPR_THREADS/lane-count independent.
//
// The epoch boundary is one decision: every ingest passes one gate under
// its lane mutex that reads the open epoch, and the gate counts its
// verdicts (accepted, memoized, duplicate, closed-epoch) in the lane's own
// tallies. Seal() closes the epoch and then drains the lanes, so an epoch's
// counts, rejects and ledger are cut at the same instant per lane — exact
// even while producers keep ingesting across the seal.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/check.h"
#include "serve/admission.h"
#include "serve/collector.h"
#include "serve/epoch_schedule.h"

namespace ldpr::serve {

struct LongitudinalOptions {
  EpochSchedule schedule = EpochSchedule::Fixed(1);
  CollectorOptions collector;
  /// Maximum sealed epochs (and completed windows) retained; older entries
  /// are evicted oldest-first. 0 = unbounded (the legacy behavior; sealed
  /// snapshot references then stay valid for the collector's lifetime).
  std::size_t history_cap = 0;
  /// Charge recognized replays eps = 0. Sound only when clients follow the
  /// memoization contract: an identical frame then is a replayed permanent
  /// answer, not an accidental collision of a fresh randomization (for
  /// low-entropy frames like GRR's the server cannot tell the two apart).
  /// Off — a deployment whose clients do not memoize — every accepted
  /// report is charged fresh while per-user totals are still tracked, so
  /// the cumulative budget grows exactly linearly in the rounds.
  bool memoized_replays_free = true;

  /// The one place CollectorOptions embeds into LongitudinalOptions (the
  /// CLI and the one-epoch-per-window callers construct through here).
  /// Copies the whole struct, so a new CollectorOptions field can never
  /// silently default — the sizeof tripwire below forces a look at this
  /// function whenever the struct grows.
  static LongitudinalOptions FromCollector(const CollectorOptions& collector) {
    struct Shape {
      int lanes;
      obs::MetricsRegistry* metrics;
    };
    static_assert(sizeof(CollectorOptions) == sizeof(Shape),
                  "CollectorOptions changed shape: confirm "
                  "LongitudinalOptions::FromCollector (whole-struct copy) "
                  "still covers every field, then update this tripwire");
    LongitudinalOptions out;
    out.collector = collector;
    return out;
  }
};

/// One completed estimation window: the union of `length` consecutive
/// epochs' accepted reports, estimated with the same Eq. (2) + Norm-Sub
/// arithmetic as a single epoch.
struct WindowSnapshot {
  long long window = -1;
  long long first_epoch = 0;
  long long last_epoch = 0;
  long long n = 0;                  ///< accepted reports across the window
  std::vector<long long> counts;    ///< summed support counts, size k
  std::vector<double> frequencies;  ///< raw Eq. (2) estimate
  std::vector<double> consistent;   ///< Norm-Sub post-processed estimate
};

/// Count/frequency difference between two sealed epochs (newer - older).
struct SnapshotDelta {
  long long from_epoch = -1;
  long long to_epoch = -1;
  std::vector<long long> count_delta;
  /// Element-wise frequency difference; empty when either epoch was empty.
  std::vector<double> frequency_delta;
  /// L1 norm of frequency_delta: the drift magnitude between the epochs.
  double l1_drift = 0.0;
};

SnapshotDelta DiffSnapshots(const EstimateSnapshot& older,
                            const EstimateSnapshot& newer);

/// Epoch/round lifecycle plus cross-epoch state over one Collector:
/// open -> ingest -> seal -> {epoch snapshot, completed window, ledgers}.
class LongitudinalCollector final : public IngestSink {
 public:
  explicit LongitudinalCollector(const fo::FrequencyOracle& oracle,
                                 const LongitudinalOptions& options = {});

  /// Opens the next epoch; requires the previous one to be sealed. Owner
  /// thread only (like Seal). Returns the new epoch id (0, 1, ...).
  long long OpenEpoch();

  bool open() const { return open_epoch_.load() >= 0; }

  /// The live collector; requires an open epoch. Reports ingested into it
  /// directly bypass the epoch gate and are charged as fresh.
  Collector& collector();

  /// Ingests one wire frame through the epoch gate, which runs under the
  /// lane mutex after frame validation. With no epoch open the frame is
  /// rejected kClosedEpoch — counted in the lane tallies like every other
  /// reject, so it lands in the next sealed epoch's stats and in the live
  /// scrape — never thrown, so a socket transport can keep draining
  /// between epochs. An attributed frame (request.user set) is then
  /// classified against the user's history: a second report from that
  /// user within the open epoch is rejected kDuplicate before it reaches
  /// any aggregator, an identical frame from an earlier epoch is a memoized
  /// replay (accepted, charged eps = 0), anything else is a fresh
  /// randomization. Anonymous frames skip classification and are charged
  /// fresh. Thread-safe alongside Seal() and OpenEpoch().
  IngestResult Ingest(const IngestRequest& request) override;

  /// Seals the open epoch: closes it, drains the lanes, estimates (raw +
  /// Norm-Sub), charges the epoch's fresh (accepted - memoized) reports in
  /// the epoch's and the cumulative LedgerReport, advances the window delta
  /// state, and archives the snapshot. Owner thread only; producers may
  /// keep ingesting (frames that find the epoch closed are kClosedEpoch
  /// rejects). Cost: O(lanes * k + shards) — the lanes plus the user
  /// table's shard counters (UserTable::Scan) — however many users or
  /// reports there are. The returned reference stays valid until
  /// history_cap evictions (forever when the cap is 0).
  const EstimateSnapshot& Seal();

  /// Sealed epochs, oldest first (bounded by history_cap).
  const std::deque<EstimateSnapshot>& snapshots() const { return history_; }
  /// Completed estimation windows, oldest first (bounded by history_cap).
  const std::deque<WindowSnapshot>& windows() const { return windows_; }
  /// The cumulative ledger of the last sealed epoch (empty before one).
  const privacy::LedgerReport& cumulative_ledger() const {
    return cumulative_report_;
  }

  /// The table attributed frames are classified against.
  UserTable* user_table() override { return &users_; }

  const EpochSchedule& schedule() const { return options_.schedule; }
  const LongitudinalOptions& options() const { return options_; }
  const fo::FrequencyOracle& oracle() const { return collector_.oracle(); }
  /// Static wire config — readable with or without an open epoch.
  std::size_t report_bytes() const { return collector_.report_bytes(); }
  int lanes() const { return collector_.lanes(); }

 private:
  LongitudinalOptions options_;
  Collector collector_;
  UserTable users_;
  std::deque<EstimateSnapshot> history_;
  std::deque<WindowSnapshot> windows_;

  // Window delta state: support counts of the last <= length epochs and
  // their running sum (integer-exact, so no drift accumulates).
  std::deque<std::vector<long long>> tail_counts_;
  std::deque<long long> tail_n_;
  std::vector<long long> window_counts_;
  long long window_n_ = 0;

  // Cumulative ledger state, kept as integers until report time.
  long long cumulative_fresh_ = 0;
  long long cumulative_memoized_ = 0;
  privacy::LedgerReport cumulative_report_;

  /// Set iff options.collector.metrics != nullptr: seal / window-delta
  /// latency histograms plus the per-epoch ledger gauges (cumulative and
  /// worst-user epsilon, memoization hit rate) refreshed at every Seal().
  struct Obs {
    std::shared_ptr<obs::Histogram> seal_seconds;
    std::shared_ptr<obs::Histogram> window_update_seconds;
    std::shared_ptr<obs::Gauge> epoch_open;
    std::shared_ptr<obs::Gauge> epoch_last_sealed;
    std::shared_ptr<obs::Gauge> epoch_reports;
    std::shared_ptr<obs::Gauge> epsilon_epoch;
    std::shared_ptr<obs::Gauge> epsilon_cumulative;
    std::shared_ptr<obs::Gauge> epsilon_worst_user;
    std::shared_ptr<obs::Gauge> epsilon_mean_user;
    std::shared_ptr<obs::Gauge> memoization_hit_rate;
    std::shared_ptr<obs::Gauge> users;
    std::shared_ptr<obs::Gauge> user_table_users;
    std::shared_ptr<obs::Gauge> user_table_bytes;
    std::shared_ptr<obs::Gauge> window_occupancy;
  };
  std::unique_ptr<Obs> obs_;

  /// The open epoch's id, -1 while closed. Written by the owner only;
  /// producers read it in the gate under a lane mutex, and Seal() stores -1
  /// before it takes any lane mutex to drain, so every frame a lane
  /// admitted before the drain belongs to the epoch being sealed.
  std::atomic<long long> open_epoch_{-1};
  long long next_epoch_ = 0;
  double opened_at_ = 0.0;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_LONGITUDINAL_H_
