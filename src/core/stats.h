#ifndef LDPR_CORE_STATS_H_
#define LDPR_CORE_STATS_H_

#include <string>
#include <vector>

namespace ldpr {

/// Summary statistics of a sample.
struct Summary {
  long long n = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased sample variance (n-1 denominator)
  double stddev = 0.0;
  double stderr_mean = 0.0;  ///< stddev / sqrt(n)
};

/// Computes Summary over `values` (requires at least one element; variance
/// terms are 0 for n = 1).
Summary Summarize(const std::vector<double>& values);

/// Wilson score interval for a binomial proportion: the [lo, hi] interval
/// for the true success probability after observing `successes` out of
/// `trials`, at normal quantile `z` (1.96 ~ 95%). Preferred over the normal
/// approximation for the small success counts the attack benches produce.
struct Interval {
  double lo = 0.0;
  double hi = 1.0;
};

Interval WilsonInterval(long long successes, long long trials,
                        double z = 1.96);

/// Pearson chi-square statistic of observed counts against expected
/// probabilities (which must sum to ~1; each expected count must be
/// positive).
double ChiSquareStatistic(const std::vector<long long>& observed,
                          const std::vector<double>& expected_probs);

/// Upper-tail p-value of the chi-square distribution with `dof` degrees of
/// freedom: P[X >= statistic]. Implemented via the regularized incomplete
/// gamma function (series + continued fraction), accurate to ~1e-10 over
/// the ranges the tests use.
double ChiSquarePValue(double statistic, int dof);

/// Convenience: chi-square goodness-of-fit p-value of `observed` counts
/// against `expected_probs` (dof = bins - 1).
double GoodnessOfFitPValue(const std::vector<long long>& observed,
                           const std::vector<double>& expected_probs);

/// Mergeable ingest tallies for streaming report consumers (serve/). One
/// instance lives per collector lane so producers never contend on a shared
/// counter; lanes Merge into the epoch totals at seal time.
struct IngestCounters {
  long long reports = 0;   ///< reports decoded and accumulated
  long long bytes = 0;     ///< wire bytes consumed (accepted reports only)
  long long rejected = 0;  ///< malformed buffers cleanly rejected
  /// Admission-control rejects, one field per serve::RejectReason (the
  /// serve layer counts them via serve::CountReject; they stay zero on
  /// surfaces without that admission stage).
  long long duplicates = 0;    ///< (user, epoch) already delivered a report
  long long rate_limited = 0;  ///< per-user token bucket empty
  long long shed = 0;          ///< dropped by overload shedding
  long long closed_epoch = 0;  ///< arrived with no epoch open
  /// Accepted reports a longitudinal gate recognized as memoized replays (a
  /// subset of `reports`, charged eps = 0; zero everywhere else).
  long long memoized = 0;

  long long TotalRejected() const {
    return rejected + duplicates + rate_limited + shed + closed_epoch;
  }

  void Merge(const IngestCounters& other) {
    reports += other.reports;
    bytes += other.bytes;
    rejected += other.rejected;
    duplicates += other.duplicates;
    rate_limited += other.rate_limited;
    shed += other.shed;
    closed_epoch += other.closed_epoch;
    memoized += other.memoized;
  }
};

/// Visits every reject field of `c` as (name, value), in declaration order.
/// This is the single enumeration of reject surfaces: the serve-demo footer,
/// the telemetry exporters and the tests all walk rejects through this
/// visitor, so a new reject reason (new field here + a serve::CountReject
/// arm) cannot silently miss one of them. Names match
/// serve::RejectReasonName (pinned by serve_server_test).
template <typename Fn>
void ForEachRejectField(const IngestCounters& c, Fn&& fn) {
  fn("malformed", c.rejected);
  fn("duplicate", c.duplicates);
  fn("rate-limited", c.rate_limited);
  fn("shed", c.shed);
  fn("closed-epoch", c.closed_epoch);
}

/// One-line `rejects: malformed=0 duplicate=800 ...` summary rendered via
/// ForEachRejectField — the format the CI socket smoke greps.
std::string FormatRejects(const IngestCounters& c);

/// Monotonic wall-clock seconds (steady_clock): throughput measurement for
/// the ingest paths. Differences are meaningful; absolute values are not.
double MonotonicSeconds();

}  // namespace ldpr

#endif  // LDPR_CORE_STATS_H_
