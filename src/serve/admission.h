#ifndef LDPR_SERVE_ADMISSION_H_
#define LDPR_SERVE_ADMISSION_H_

// Per-user server state: deterministic token buckets (per connection and
// per user) behind the socket server's accept decision, and the one
// per-user table that holds each user's bucket next to the longitudinal
// replay history, so admission and replay classification touch one slot.
//
// Buckets take the current time as an explicit parameter instead of reading
// a clock, so refill arithmetic is exactly testable (serve_server_test
// drives epoch boundaries with a synthetic clock) and the server pays one
// MonotonicSeconds() read per read-chunk, not per record.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace ldpr::serve {

/// Classic token bucket: capacity `burst` tokens, refilled continuously at
/// `rate` tokens/second. rate <= 0 means unlimited (every TryAcquire
/// succeeds, nothing is tracked). Starts full.
class TokenBucket {
 public:
  /// The part of a bucket that varies per user: balance and last refill.
  /// UserTable keeps one per slot; rate and burst are table-wide.
  struct Level {
    double tokens = 0.0;
    double last = 0.0;
  };

  TokenBucket() = default;
  TokenBucket(double rate, double burst, double now = 0.0)
      : rate_(rate), burst_(burst), level_{burst, now} {}

  /// Takes `tokens` if available at time `now`; false leaves the bucket
  /// untouched (no debt accumulates).
  bool TryAcquire(double now, double tokens = 1.0) {
    return TryAcquire(level_, rate_, burst_, now, tokens);
  }
  /// TryAcquire on a level kept outside the bucket.
  static bool TryAcquire(Level& level, double rate, double burst, double now,
                         double tokens = 1.0) {
    if (rate <= 0.0) return true;
    Refill(level, rate, burst, now);
    if (level.tokens < tokens) return false;
    level.tokens -= tokens;
    return true;
  }

  /// Unconditionally takes `tokens` at `now`, letting the balance go
  /// negative (debt). Connection pacing charges every record it already
  /// read — honest backpressure never drops read data — then pauses reads
  /// until the debt refills, so the sustained rate converges to `rate`
  /// exactly whatever the read-chunk granularity.
  void Charge(double now, double tokens = 1.0) {
    if (rate_ <= 0.0) return;
    Refill(level_, rate_, burst_, now);
    level_.tokens -= tokens;
  }

  /// Tokens available at `now` (after refill; does not consume).
  double Available(double now) const {
    if (rate_ <= 0.0) return burst_;
    return Available(level_, rate_, burst_, now);
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
  static double Available(const Level& level, double rate, double burst,
                          double now) {
    const double elapsed = now > level.last ? now - level.last : 0.0;
    const double refilled = level.tokens + elapsed * rate;
    return refilled < burst ? refilled : burst;
  }
  static void Refill(Level& level, double rate, double burst, double now) {
    if (now <= level.last) return;  // clock went backwards / same instant
    level.tokens = Available(level, rate, burst, now);
    level.last = now;
  }

  double rate_ = 0.0;  ///< tokens per second; <= 0 = unlimited
  double burst_ = 0.0;
  Level level_;
};

struct AdmissionOptions {
  /// Per-user sustained report rate (reports/second); <= 0 disables the
  /// per-user check entirely (no table is consulted).
  double per_user_rate = 0.0;
  /// Per-user burst allowance (bucket capacity).
  double per_user_burst = 8.0;
};

/// The one per-user table: user id -> {token bucket level, last epoch,
/// fresh count, distinct frame hashes}, one 64-byte slot per user.
///
/// Shards of open-addressing slot arrays (linear probing, doubled past 3/4
/// load), each a std::vector under its own mutex. Slots are placed by a mix
/// of the user id with a per-table random seed, so a peer cannot precompute
/// ids that collide; placement never affects a verdict. Two frame hashes
/// live in the slot; a user's further ones chain through a per-shard
/// overflow pool. Each shard keeps its users / fresh totals current on
/// insert, so Scan() — and with it a longitudinal seal — is O(shards).
/// Thread-safe.
class UserTable {
 public:
  /// What one frame from one user turned out to be.
  enum class FrameClass : std::uint8_t {
    kFresh,     ///< new randomization: charged eps, hash recorded
    kMemoized,  ///< replays a frame this user already sent: charged eps = 0
    kDuplicate  ///< second report within `epoch`: inadmissible, not recorded
  };

  struct UserStats {
    long long users = 0;        ///< distinct users ever classified
    long long total_fresh = 0;  ///< fresh randomizations across all users
    long long max_fresh = 0;    ///< worst user's fresh count
    long long occupied = 0;     ///< slots in use (admitted or classified)
    long long capacity = 0;     ///< slots allocated, kSlotBytes each
    long long overflow_bytes = 0;  ///< the overflow pools' allocation
  };

  static constexpr std::size_t kSlotBytes = 64;

  explicit UserTable(int shards = 64);
  ~UserTable();
  UserTable(const UserTable&) = delete;
  UserTable& operator=(const UserTable&) = delete;

  /// Takes one token from `user`'s bucket at `now` (TokenBucket semantics;
  /// the bucket starts full at the user's first Admit).
  bool Admit(long long user, double now, double rate, double burst);

  /// Classifies one frame from `user` arriving in `epoch`. A user already
  /// recorded in this epoch classifies kDuplicate and nothing is recorded —
  /// the caller must not aggregate it. With `trust_replays` false the
  /// replay (hash) check is skipped and every admitted frame counts fresh
  /// (no hashes stored); the per-epoch check is independent of it. Epochs
  /// must be presented non-decreasing per user.
  FrameClass Classify(long long user, std::span<const std::uint8_t> frame,
                      long long epoch, bool trust_replays = true);

  /// Cumulative statistics from the shard counters; O(shards). `users`
  /// counts classified users only: a slot that only Admit created (a user
  /// whose every record was rate-limited or refused) is not in the ledger.
  UserStats Scan() const;

  /// Prefetches `user`'s home slot. Reads only atomics, so it may run
  /// beside any writer; a stale placement costs one wasted prefetch.
  void Prefetch(long long user) const;

 private:
  struct Slot;
  struct Shard;

  std::uint64_t Place(long long user) const;
  Shard& ShardOf(std::uint64_t place) const;
  /// The slot of `user`, inserted empty when absent. Caller holds the
  /// shard mutex.
  Slot& Locate(Shard& shard, long long user, std::uint64_t place);

  std::uint64_t seed_;
  int shards_;
  std::unique_ptr<Shard[]> shard_;
};

/// The replay-classification face of the per-user table.
using UserReplayTable = UserTable;

/// Per-user admission: the server's rate and burst over a UserTable — the
/// sink's own (IngestSink::user_table) when given, so admission and replay
/// share one slot per user, else one owned here.
class UserAdmissionTable {
 public:
  explicit UserAdmissionTable(const AdmissionOptions& options,
                              UserTable* shared = nullptr);

  /// True when `user` may submit one report at time `now` (consumes one
  /// token). Always true when the per-user rate is disabled.
  bool Admit(long long user, double now) {
    return !enabled() || table_->Admit(user, now, options_.per_user_rate,
                                       options_.per_user_burst);
  }

  /// Distinct users holding a slot in the table (0 when disabled).
  long long users() const { return enabled() ? table_->Scan().occupied : 0; }

  bool enabled() const { return options_.per_user_rate > 0.0; }
  const AdmissionOptions& options() const { return options_; }
  const UserTable& table() const { return *table_; }

 private:
  AdmissionOptions options_;
  std::unique_ptr<UserTable> owned_;
  UserTable* table_;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_ADMISSION_H_
