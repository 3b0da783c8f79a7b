#include "serve/longitudinal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/check.h"
#include "fo/consistency.h"
#include "obs/span.h"

namespace ldpr::serve {

SnapshotDelta DiffSnapshots(const EstimateSnapshot& older,
                            const EstimateSnapshot& newer) {
  LDPR_REQUIRE(older.counts.size() == newer.counts.size(),
               "snapshot deltas need matching domains, got "
                   << older.counts.size() << " vs " << newer.counts.size());
  SnapshotDelta delta;
  delta.from_epoch = older.epoch;
  delta.to_epoch = newer.epoch;
  delta.count_delta.resize(newer.counts.size());
  for (std::size_t v = 0; v < newer.counts.size(); ++v) {
    delta.count_delta[v] = newer.counts[v] - older.counts[v];
  }
  if (!older.frequencies.empty() && !newer.frequencies.empty()) {
    delta.frequency_delta.resize(newer.frequencies.size());
    for (std::size_t v = 0; v < newer.frequencies.size(); ++v) {
      delta.frequency_delta[v] = newer.frequencies[v] - older.frequencies[v];
      delta.l1_drift += std::abs(delta.frequency_delta[v]);
    }
  }
  return delta;
}

LongitudinalCollector::LongitudinalCollector(
    const fo::FrequencyOracle& oracle, const LongitudinalOptions& options)
    : options_(options), collector_(oracle, options.collector) {
  window_counts_.assign(oracle.k(), 0);
  if (obs::MetricsRegistry* reg = options.collector.metrics) {
    obs_ = std::make_unique<Obs>();
    obs_->seal_seconds = reg->GetHistogram(
        "ldpr_seal_seconds", "", "Wall time of one epoch Seal()", 1,
        obs::HistogramUnit::kSeconds);
    obs_->window_update_seconds = reg->GetHistogram(
        "ldpr_window_update_seconds", "",
        "Wall time of the window count-delta slide inside Seal()", 1,
        obs::HistogramUnit::kSeconds);
    obs_->epoch_open =
        reg->GetGauge("ldpr_epoch_open", "", "1 while an epoch is ingesting");
    obs_->epoch_last_sealed = reg->GetGauge(
        "ldpr_epoch_last_sealed", "", "Id of the most recently sealed epoch");
    obs_->epoch_reports = reg->GetGauge(
        "ldpr_epoch_reports", "", "Accepted reports in the last sealed epoch");
    obs_->epsilon_epoch = reg->GetGauge(
        "ldpr_privacy_epsilon_epoch", "",
        "Realized epsilon of the last sealed epoch alone");
    obs_->epsilon_cumulative = reg->GetGauge(
        "ldpr_privacy_epsilon_cumulative", "",
        "Sequential-composition epsilon over every sealed epoch");
    obs_->epsilon_worst_user = reg->GetGauge(
        "ldpr_privacy_epsilon_worst_user", "",
        "Cumulative epsilon of the worst tracked user");
    obs_->epsilon_mean_user = reg->GetGauge(
        "ldpr_privacy_epsilon_mean_user", "",
        "Mean cumulative epsilon across tracked users");
    obs_->memoization_hit_rate = reg->GetGauge(
        "ldpr_privacy_memoization_hit_rate", "",
        "Fraction of accepted reports recognized as memoized replays");
    obs_->users = reg->GetGauge("ldpr_privacy_users", "",
                                "Distinct users ever classified");
    obs_->user_table_users = reg->GetGauge(
        "ldpr_user_table_users", "",
        "Users holding a slot in the per-user table (admitted or classified)");
    obs_->user_table_bytes = reg->GetGauge(
        "ldpr_user_table_bytes", "",
        "Per-user table allocation: slots plus overflow pools");
    obs_->window_occupancy = reg->GetGauge(
        "ldpr_window_occupancy", "",
        "Epochs currently inside the sliding estimation window");
  }
}

long long LongitudinalCollector::OpenEpoch() {
  LDPR_REQUIRE(!open(), "cannot open an epoch while epoch "
                            << next_epoch_ - 1 << " is still ingesting");
  opened_at_ = MonotonicSeconds();
  if (obs_) obs_->epoch_open->Set(1);
  open_epoch_.store(next_epoch_);
  return next_epoch_++;
}

Collector& LongitudinalCollector::collector() {
  LDPR_REQUIRE(open(), "ingest requires an open epoch (OpenEpoch first)");
  return collector_;
}

IngestResult LongitudinalCollector::Ingest(const IngestRequest& request) {
  // The gate runs under the lane mutex after frame validation (so a
  // malformed frame is kMalformed, never kDuplicate, and a refused frame
  // reaches no aggregator) and takes the replay-table shard mutex strictly
  // inside the lane mutex.
  return collector_.IngestGated(
      request, [this](const IngestRequest& r, IngestCounters& tallies) {
        const long long epoch = open_epoch_.load();
        if (epoch < 0) return RejectReason::kClosedEpoch;
        if (!r.user.has_value()) return RejectReason::kNone;
        switch (users_.Classify(*r.user, r.frame, epoch,
                                options_.memoized_replays_free)) {
          case UserTable::FrameClass::kDuplicate:
            return RejectReason::kDuplicate;
          case UserTable::FrameClass::kMemoized:
            ++tallies.memoized;
            break;
          case UserTable::FrameClass::kFresh:
            break;
        }
        return RejectReason::kNone;
      });
}

const EstimateSnapshot& LongitudinalCollector::Seal() {
  const long long epoch = open_epoch_.load();
  LDPR_REQUIRE(epoch >= 0, "no open epoch to seal");
  obs::Span seal_span(obs_ ? obs_->seal_seconds.get() : nullptr);
  // Close before draining: a producer that takes a lane mutex after the
  // drain passed that lane reads -1 and is refused kClosedEpoch, so nothing
  // classified into this epoch can miss its drain.
  open_epoch_.store(-1);
  const double seconds = MonotonicSeconds() - opened_at_;
  const fo::FrequencyOracle& oracle = collector_.oracle();
  Collector::Drained drained = collector_.Drain();

  EstimateSnapshot snapshot;
  snapshot.epoch = epoch;
  snapshot.n = drained.n;
  snapshot.counts = std::move(drained.counts);
  if (drained.n > 0) {
    snapshot.frequencies =
        oracle.EstimateFromCounts(snapshot.counts, drained.n);
    snapshot.consistent = fo::NormSub(snapshot.frequencies);
  }
  snapshot.stats = IngestStats::Over(drained.tallies, seconds);

  // Ledger: replays the gate recognized are charged 0; everything else
  // accepted this epoch (classified fresh or anonymous) is a fresh eps-LDP
  // randomization of the one served attribute. Both come from the same
  // drain, so they can never disagree.
  const long long epoch_memoized = drained.tallies.memoized;
  const long long epoch_fresh = drained.tallies.reports - epoch_memoized;
  const double epsilon = oracle.epsilon();
  {
    privacy::Accountant epoch_ledger(/*d=*/1);
    epoch_ledger.RecordSmpBulk(0, epsilon, epoch_fresh);
    epoch_ledger.RecordMemoized(epoch_memoized);
    snapshot.ledger = epoch_ledger.MakeReport();
  }
  const UserTable::UserStats stats = users_.Scan();
  cumulative_fresh_ += epoch_fresh;
  cumulative_memoized_ += epoch_memoized;
  {
    // Rebuilt from integer totals every seal: one multiply, no accumulated
    // float-addition order dependence.
    privacy::Accountant cumulative(/*d=*/1);
    cumulative.RecordSmpBulk(0, epsilon, cumulative_fresh_);
    cumulative.RecordMemoized(cumulative_memoized_);
    cumulative_report_ = cumulative.MakeReport();
    cumulative_report_.users = stats.users;
    if (stats.users > 0) {
      // Per-user sequential totals over *tracked* users (anonymous ingest
      // has no user to attribute to).
      cumulative_report_.mean_user_epsilon =
          static_cast<double>(stats.total_fresh) /
          static_cast<double>(stats.users) * epsilon;
      cumulative_report_.max_user_epsilon =
          static_cast<double>(stats.max_fresh) * epsilon;
    }
  }
  snapshot.cumulative_ledger = cumulative_report_;

  // Window delta state: slide the tail, then emit the completed window (if
  // any) straight from the running sums.
  obs::Span window_span(obs_ ? obs_->window_update_seconds.get() : nullptr);
  tail_counts_.push_back(snapshot.counts);
  tail_n_.push_back(snapshot.n);
  for (std::size_t v = 0; v < window_counts_.size(); ++v) {
    window_counts_[v] += snapshot.counts[v];
  }
  window_n_ += snapshot.n;
  if (tail_counts_.size() > static_cast<std::size_t>(schedule().length())) {
    const std::vector<long long>& gone = tail_counts_.front();
    for (std::size_t v = 0; v < window_counts_.size(); ++v) {
      window_counts_[v] -= gone[v];
    }
    window_n_ -= tail_n_.front();
    tail_counts_.pop_front();
    tail_n_.pop_front();
  }
  const long long completed = schedule().CompletedWindow(snapshot.epoch);
  if (completed >= 0) {
    WindowSnapshot window;
    window.window = completed;
    window.first_epoch = schedule().FirstEpoch(completed);
    window.last_epoch = schedule().LastEpoch(completed);
    window.n = window_n_;
    window.counts = window_counts_;
    if (window_n_ > 0) {
      window.frequencies =
          oracle.EstimateFromCounts(window.counts, window_n_);
      window.consistent = fo::NormSub(window.frequencies);
    }
    windows_.push_back(std::move(window));
    if (options_.history_cap > 0 && windows_.size() > options_.history_cap) {
      windows_.pop_front();
    }
  }

  window_span.Stop();

  history_.push_back(std::move(snapshot));
  if (options_.history_cap > 0 && history_.size() > options_.history_cap) {
    history_.pop_front();
  }
  const EstimateSnapshot& sealed = history_.back();
  if (obs_) {
    obs_->epoch_open->Set(0);
    obs_->epoch_last_sealed->Set(static_cast<double>(sealed.epoch));
    obs_->epoch_reports->Set(static_cast<double>(sealed.stats.reports));
    obs_->epsilon_epoch->Set(sealed.ledger.total_epsilon);
    obs_->epsilon_cumulative->Set(cumulative_report_.total_epsilon);
    obs_->epsilon_worst_user->Set(cumulative_report_.max_user_epsilon);
    obs_->epsilon_mean_user->Set(cumulative_report_.mean_user_epsilon);
    obs_->memoization_hit_rate->Set(cumulative_report_.MemoizationHitRate());
    obs_->users->Set(static_cast<double>(cumulative_report_.users));
    obs_->user_table_users->Set(static_cast<double>(stats.occupied));
    obs_->user_table_bytes->Set(static_cast<double>(
        stats.capacity * static_cast<long long>(UserTable::kSlotBytes) +
        stats.overflow_bytes));
    obs_->window_occupancy->Set(static_cast<double>(tail_counts_.size()));
  }
  return sealed;
}

}  // namespace ldpr::serve
