#ifndef LDPR_SERVE_ADMISSION_H_
#define LDPR_SERVE_ADMISSION_H_

// Admission control for the network front door: deterministic token buckets
// (per connection and per user) behind the socket server's accept decision.
//
// Buckets take the current time as an explicit parameter instead of reading
// a clock, so refill arithmetic is exactly testable (serve_server_test
// drives epoch boundaries with a synthetic clock) and the server pays one
// MonotonicSeconds() read per read-chunk, not per record.

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace ldpr::serve {

/// Classic token bucket: capacity `burst` tokens, refilled continuously at
/// `rate` tokens/second. rate <= 0 means unlimited (every TryAcquire
/// succeeds, nothing is tracked). Starts full.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate, double burst, double now = 0.0)
      : rate_(rate), burst_(burst), tokens_(burst), last_(now) {}

  /// Takes `tokens` if available at time `now`; false leaves the bucket
  /// untouched (no debt accumulates).
  bool TryAcquire(double now, double tokens = 1.0) {
    if (rate_ <= 0.0) return true;
    Refill(now);
    if (tokens_ < tokens) return false;
    tokens_ -= tokens;
    return true;
  }

  /// Unconditionally takes `tokens` at `now`, letting the balance go
  /// negative (debt). Connection pacing charges every record it already
  /// read — honest backpressure never drops read data — then pauses reads
  /// until the debt refills, so the sustained rate converges to `rate`
  /// exactly whatever the read-chunk granularity.
  void Charge(double now, double tokens = 1.0) {
    if (rate_ <= 0.0) return;
    Refill(now);
    tokens_ -= tokens;
  }

  /// Tokens available at `now` (after refill; does not consume).
  double Available(double now) const {
    if (rate_ <= 0.0) return burst_;
    const double elapsed = now > last_ ? now - last_ : 0.0;
    const double refilled = tokens_ + elapsed * rate_;
    return refilled < burst_ ? refilled : burst_;
  }

  /// Seconds past `now` until `tokens` will be available (0 when they
  /// already are). Unlimited buckets are always ready.
  double DelayUntil(double now, double tokens = 1.0) const {
    if (rate_ <= 0.0) return 0.0;
    const double available = Available(now);
    if (available >= tokens) return 0.0;
    return (tokens - available) / rate_;
  }

  double rate() const { return rate_; }
  double burst() const { return burst_; }

 private:
  void Refill(double now) {
    if (now <= last_) return;  // clock went backwards / same instant: no-op
    tokens_ = Available(now);
    last_ = now;
  }

  double rate_ = 0.0;  ///< tokens per second; <= 0 = unlimited
  double burst_ = 0.0;
  double tokens_ = 0.0;
  double last_ = 0.0;
};

struct AdmissionOptions {
  /// Per-user sustained report rate (reports/second); <= 0 disables the
  /// per-user check entirely (no table is consulted).
  double per_user_rate = 0.0;
  /// Per-user burst allowance (bucket capacity).
  double per_user_burst = 8.0;
};

/// Sharded user -> TokenBucket table: the per-user half of admission
/// control. Thread-safe; shard assignment depends only on the user id.
class UserAdmissionTable {
 public:
  explicit UserAdmissionTable(const AdmissionOptions& options);

  /// True when `user` may submit one report at time `now` (consumes one
  /// token). Always true when the per-user rate is disabled.
  bool Admit(long long user, double now);

  /// Distinct users ever seen by the table (0 when disabled).
  long long users() const;

  bool enabled() const { return options_.per_user_rate > 0.0; }
  const AdmissionOptions& options() const { return options_; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<long long, TokenBucket> buckets;
  };

  Shard& ShardFor(long long user) {
    const long long n = static_cast<long long>(shards_.size());
    return *shards_[static_cast<std::size_t>((user % n + n) % n)];
  }

  AdmissionOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_ADMISSION_H_
