// Tests for the network front door: token-bucket refill arithmetic
// (admission), the wire-record framer under torn reads and random split
// points (wire_session), duplicate (user, epoch) rejection through the
// unified IngestRequest API, the socket server end to end over a
// Unix-domain socket — sealed snapshots must be bit-identical to the same
// frames pushed through the in-process path — and the admin scrape
// endpoint, whose /metrics counters must equal the sealed snapshot's
// IngestCounters exactly, including mid-stream scrapes. Runs under the
// ASan fast label.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/hash.h"
#include "core/rng.h"
#include "fo/factory.h"
#include "fo/wire.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/collector.h"
#include "serve/loadgen.h"
#include "serve/longitudinal.h"
#include "serve/server.h"
#include "serve/wire_session.h"

namespace ldpr::serve {
namespace {

// ---------------------------------------------------------------------------
// Token buckets: exact refill arithmetic under a synthetic clock
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, RefillArithmeticIsExact) {
  TokenBucket bucket(10.0, 5.0, /*now=*/100.0);  // starts full
  EXPECT_DOUBLE_EQ(bucket.Available(100.0), 5.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire(100.0));
  EXPECT_FALSE(bucket.TryAcquire(100.0));
  EXPECT_DOUBLE_EQ(bucket.Available(100.0), 0.0);
  // One token refills in exactly 1/rate seconds.
  EXPECT_DOUBLE_EQ(bucket.DelayUntil(100.0), 0.1);
  EXPECT_FALSE(bucket.TryAcquire(100.05));  // only half a token back
  EXPECT_TRUE(bucket.TryAcquire(100.2));    // two tokens back, takes one
  // Refill clamps at burst no matter how long the idle stretch.
  EXPECT_DOUBLE_EQ(bucket.Available(1.0e9), 5.0);
}

TEST(TokenBucketTest, RefillAcrossEpochBoundaries) {
  // The pipeline rolls epochs on a fixed period; a bucket paused near the
  // end of one epoch must carry its exact fractional balance across the
  // boundary — refill depends only on elapsed time, never on epoch count.
  const double epoch_seconds = 1.0;
  TokenBucket bucket(4.0, 8.0, /*now=*/0.0);
  // Drain the burst just before the boundary.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(bucket.TryAcquire(0.9 * epoch_seconds));
  }
  EXPECT_DOUBLE_EQ(bucket.Available(0.9 * epoch_seconds), 0.0);
  // 0.1 s straddling the boundary refills 0.4 tokens, not a fresh burst.
  EXPECT_DOUBLE_EQ(bucket.Available(1.0 * epoch_seconds), 0.4);
  EXPECT_FALSE(bucket.TryAcquire(1.0 * epoch_seconds));
  // A whole epoch later: 0.4 + 4.0, still below burst.
  EXPECT_DOUBLE_EQ(bucket.Available(2.0 * epoch_seconds), 4.4);
  // Clock going backwards must not mint tokens.
  ASSERT_TRUE(bucket.TryAcquire(2.0 * epoch_seconds));
  EXPECT_DOUBLE_EQ(bucket.Available(1.5 * epoch_seconds), 3.4);
}

TEST(TokenBucketTest, ChargeRunsIntoDebtAndConverges) {
  // Pacing charges every record already read (nothing is dropped); the debt
  // delays the resume time so the sustained rate converges to `rate`.
  TokenBucket bucket(10.0, 5.0, /*now=*/0.0);
  for (int i = 0; i < 100; ++i) bucket.Charge(0.0);
  // 100 records against 5 burst: 95 tokens of debt + 1 to proceed.
  EXPECT_DOUBLE_EQ(bucket.DelayUntil(0.0), 9.6);
  // 100 records / (9.6 s + initial burst credit) ~ 10 records/s sustained.
  EXPECT_TRUE(bucket.TryAcquire(9.6));
}

TEST(TokenBucketTest, NonPositiveRateIsUnlimited) {
  TokenBucket bucket(0.0, 0.0, 0.0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_DOUBLE_EQ(bucket.DelayUntil(0.0), 0.0);
}

TEST(UserAdmissionTableTest, BucketsArePerUser) {
  AdmissionOptions options;
  options.per_user_rate = 1.0;
  options.per_user_burst = 2.0;
  UserAdmissionTable table(options);
  ASSERT_TRUE(table.enabled());
  EXPECT_TRUE(table.Admit(7, 0.0));
  EXPECT_TRUE(table.Admit(7, 0.0));
  EXPECT_FALSE(table.Admit(7, 0.0));  // burst spent
  EXPECT_TRUE(table.Admit(-3, 0.0));  // negative ids shard correctly
  EXPECT_TRUE(table.Admit(7, 1.0));   // one token back after 1 s
  EXPECT_EQ(table.users(), 2);
}

// ---------------------------------------------------------------------------
// The per-user table against the per-user maps it replaced
// ---------------------------------------------------------------------------

// The unordered_map replay table and per-user TokenBucket map the flat
// UserTable replaced, kept verbatim in logic as the reference its verdicts
// and statistics must match.
class ReferenceUserMaps {
 public:
  using FrameClass = UserTable::FrameClass;

  ReferenceUserMaps(double rate, double burst) : rate_(rate), burst_(burst) {}

  bool Admit(long long user, double now) {
    Bucket& bucket = buckets_.try_emplace(user, Bucket{burst_, now}).first->second;
    if (now > bucket.last) {
      const double refilled = bucket.tokens + (now - bucket.last) * rate_;
      bucket.tokens = refilled < burst_ ? refilled : burst_;
      bucket.last = now;
    }
    if (bucket.tokens < 1.0) return false;
    bucket.tokens -= 1.0;
    return true;
  }

  FrameClass Classify(long long user, std::span<const std::uint8_t> frame,
                      long long epoch, bool trust_replays) {
    User& entry = users_[user];
    if (entry.last_epoch == epoch) return FrameClass::kDuplicate;
    entry.last_epoch = epoch;
    if (trust_replays) {
      const std::uint64_t hash = XxHash64(frame.data(), frame.size(), 0x1d9);
      if (std::find(entry.hashes.begin(), entry.hashes.end(), hash) !=
          entry.hashes.end()) {
        return FrameClass::kMemoized;
      }
      entry.hashes.push_back(hash);
    }
    ++entry.fresh;
    return FrameClass::kFresh;
  }

  UserTable::UserStats Scan() const {
    UserTable::UserStats stats;
    stats.users = static_cast<long long>(users_.size());
    for (const auto& [user, entry] : users_) {
      stats.total_fresh += entry.fresh;
      stats.max_fresh = std::max(stats.max_fresh, entry.fresh);
    }
    return stats;
  }

  long long admitted_users() const {
    return static_cast<long long>(buckets_.size());
  }

 private:
  struct Bucket {
    double tokens;
    double last;
  };
  struct User {
    std::vector<std::uint64_t> hashes;
    long long fresh = 0;
    long long last_epoch = -1;
  };
  double rate_;
  double burst_;
  std::unordered_map<long long, Bucket> buckets_;
  std::unordered_map<long long, User> users_;
};

// A seeded stream of admissions and classifications over many epochs:
// clocks that jump backwards, users with more distinct frames than a slot
// holds inline, the extreme user ids, and enough users to regrow a
// one-shard table many times. trust mode 2 mixes trusted and untrusted
// calls.
TEST(UserTableTest, VerdictsAndStatsMatchTheReferenceMaps) {
  using FrameClass = UserTable::FrameClass;
  const long long kExtremes[] = {0, -1, LLONG_MIN, LLONG_MAX};
  for (const int shards : {1, 64}) {
    for (const int trust_mode : {0, 1, 2}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards " << shards << " trust mode " << trust_mode);
      AdmissionOptions admission;
      admission.per_user_rate = 2.0;
      admission.per_user_burst = 3.0;
      UserTable table(shards);
      UserAdmissionTable admit(admission, &table);
      ReferenceUserMaps reference(admission.per_user_rate,
                                  admission.per_user_burst);
      Rng rng(977 + static_cast<std::uint64_t>(shards * 3 + trust_mode));
      std::vector<long long> ids(kExtremes, kExtremes + 4);
      for (int i = 0; i < 3000; ++i) {
        ids.push_back(i % 2 == 0 ? i
                                 : static_cast<long long>(rng.UniformInt(~0ull)));
      }
      long long classified = 0;
      for (long long epoch = 0; epoch < 12; ++epoch) {
        for (int op = 0; op < 4000; ++op) {
          // Extreme ids and a hot head of users recur in every epoch.
          const std::size_t pick =
              op < 8 ? static_cast<std::size_t>(op % 4)
                     : static_cast<std::size_t>(rng.UniformInt(
                           rng.UniformInt(4) == 0
                               ? 40
                               : static_cast<long long>(ids.size())));
          const long long user = ids[pick];
          // Up to 6 distinct one-byte frames per user: past the inline two.
          const std::uint8_t frame[] = {
              static_cast<std::uint8_t>(rng.UniformInt(6))};
          const double now = static_cast<double>(epoch) +
                             rng.UniformReal() * 2.5 - 1.5;
          const bool admitted = admit.Admit(user, now);
          ASSERT_EQ(admitted, reference.Admit(user, now))
              << "user " << user << " epoch " << epoch;
          if (!admitted && rng.UniformInt(2) == 0) continue;
          const bool trust = trust_mode == 2 ? rng.UniformInt(2) == 0
                                             : trust_mode == 1;
          const FrameClass got = table.Classify(user, frame, epoch, trust);
          ASSERT_EQ(got, reference.Classify(user, frame, epoch, trust))
              << "user " << user << " epoch " << epoch;
          ++classified;
        }
        const UserTable::UserStats got = table.Scan();
        const UserTable::UserStats want = reference.Scan();
        EXPECT_EQ(got.users, want.users);
        EXPECT_EQ(got.total_fresh, want.total_fresh);
        EXPECT_EQ(got.max_fresh, want.max_fresh);
        EXPECT_EQ(admit.users(), reference.admitted_users());
      }
      EXPECT_GT(classified, 0);
      const UserTable::UserStats stats = table.Scan();
      if (shards == 1) {
        // 16 slots to start: 2^5 x that is five rehashes.
        EXPECT_GE(stats.capacity, 16 << 5);
      }
      if (trust_mode != 0) {
        EXPECT_GT(stats.overflow_bytes, 0);
      }
    }
  }
}

// Admission and classification share the sink's table through the server
// path: every user gets one slot, but the ledger counts only users whose
// frames reached classification — not one whose records were all
// rate-limited, malformed or closed-epoch rejects.
TEST(UserTableTest, SharedTableLedgerCountsClassifiedUsersOnly) {
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 16, 1.0);
  LongitudinalCollector collector(*oracle, {});
  ASSERT_NE(collector.user_table(), nullptr);
  AdmissionOptions admission;
  admission.per_user_rate = 1.0;
  admission.per_user_burst = 1.0;
  UserAdmissionTable users(admission, collector.user_table());
  WireSession session(collector, &users, {}, 0, 0.0);

  Rng rng(31);
  const std::vector<std::uint8_t> frame =
      fo::SerializeReport(*oracle, oracle->Randomize(3, rng));
  const std::vector<std::uint8_t> malformed(frame.begin(), frame.end() - 1);
  const auto feed = [&](std::uint64_t user,
                        const std::vector<std::uint8_t>& bytes) {
    std::vector<std::uint8_t> wire;
    AppendWireRecord(user, bytes, wire);
    ASSERT_TRUE(session.Feed(wire, 0.0));
  };
  feed(5, frame);  // no epoch open: closed-epoch reject
  collector.OpenEpoch();
  feed(5, frame);       // bucket spent: rate-limited
  feed(6, malformed);   // malformed
  feed(7, frame);       // accepted
  feed(7, frame);       // rate-limited
  feed(kAnonymousUser, frame);
  EXPECT_EQ(session.counters().ingest.closed_epoch, 1);
  EXPECT_EQ(session.counters().ingest.rate_limited, 2);
  EXPECT_EQ(session.counters().ingest.rejected, 1);
  EXPECT_EQ(session.counters().ingest.reports, 2);

  const EstimateSnapshot& sealed = collector.Seal();
  EXPECT_EQ(sealed.n, 2);
  EXPECT_EQ(sealed.cumulative_ledger.users, 1);
  EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.mean_user_epsilon, 1.0);
  EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.max_user_epsilon, 1.0);
  const UserTable::UserStats stats = collector.user_table()->Scan();
  EXPECT_EQ(stats.users, 1);
  EXPECT_EQ(stats.occupied, 3);
  EXPECT_EQ(users.users(), 3);
}

// Admission (server sessions, with their prefetch passes) and in-process
// classification running at once on one table while it regrows. Exact
// totals, and TSan-clean.
TEST(UserTableTest, ConcurrentAdmissionAndClassificationOnOneTable) {
  const long long n = 4000;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 16, 1.0);
  LongitudinalOptions options;
  options.collector.lanes = 3;
  LongitudinalCollector collector(*oracle, options);
  AdmissionOptions admission;
  admission.per_user_rate = 1e9;
  admission.per_user_burst = 1e9;
  UserAdmissionTable users(admission, collector.user_table());
  Rng rng(57);
  const std::vector<std::uint8_t> frame =
      fo::SerializeReport(*oracle, oracle->Randomize(9, rng));
  collector.OpenEpoch();

  // Session 0 sends users [0, n), session 1 users [n/2, 3n/2); the
  // in-process producer ingests [n, 2n) unadmitted. Every user in an
  // overlap sends twice in the epoch: one report, one duplicate.
  std::vector<std::thread> producers;
  for (int s = 0; s < 2; ++s) {
    producers.emplace_back([&, s] {
      std::vector<std::uint8_t> wire;
      for (long long u = s * n / 2; u < s * n / 2 + n; ++u) {
        AppendWireRecord(static_cast<std::uint64_t>(u), frame, wire);
      }
      WireSession session(collector, &users, {}, s, 0.0);
      for (std::size_t off = 0; off < wire.size(); off += 4096) {
        const std::size_t len = std::min<std::size_t>(4096, wire.size() - off);
        ASSERT_TRUE(session.Feed({wire.data() + off, len}, 0.0));
      }
    });
  }
  producers.emplace_back([&] {
    for (long long u = n; u < 2 * n; ++u) {
      collector.Ingest({frame, u, 2});
    }
  });
  for (std::thread& t : producers) t.join();

  const EstimateSnapshot& sealed = collector.Seal();
  EXPECT_EQ(sealed.stats.reports, 2 * n);
  EXPECT_EQ(sealed.stats.duplicates, n);
  EXPECT_EQ(sealed.cumulative_ledger.users, 2 * n);
  EXPECT_EQ(sealed.ledger.fresh, 2 * n);
  const UserTable::UserStats stats = collector.user_table()->Scan();
  EXPECT_EQ(stats.occupied, 2 * n);
  EXPECT_EQ(stats.total_fresh, 2 * n);
  EXPECT_EQ(stats.max_fresh, 1);
}

// ---------------------------------------------------------------------------
// Wire session framing
// ---------------------------------------------------------------------------

struct SessionFixture {
  std::unique_ptr<fo::FrequencyOracle> oracle =
      fo::MakeOracle(fo::Protocol::kGrr, 16, 1.0);
  Collector collector{*oracle, CollectorOptions{.lanes = 1}};

  std::vector<std::uint8_t> ValidFrame(int value, Rng& rng) {
    return fo::SerializeReport(*oracle, oracle->Randomize(value, rng));
  }
};

TEST(WireSessionTest, TornRecordsReassembleAcrossFeeds) {
  SessionFixture fx;
  WireSession session(fx.collector, nullptr, {}, /*lane=*/0, /*now=*/0.0);

  Rng rng(11);
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 3; ++i) {
    AppendWireRecord(static_cast<std::uint64_t>(i), fx.ValidFrame(i, rng),
                     wire);
  }
  // Feed byte by byte: every boundary — mid-header, mid-user-id, mid-frame
  // — must reassemble.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(session.Feed({&wire[i], 1}, 0.0));
  }
  EXPECT_EQ(session.counters().records, 3);
  EXPECT_EQ(session.counters().ingest.reports, 3);
  EXPECT_EQ(session.counters().wire_bytes,
            static_cast<long long>(wire.size()));
  EXPECT_EQ(session.buffered(), 0u);
}

TEST(WireSessionTest, MalformedFrameIsCountedButConnectionSurvives) {
  SessionFixture fx;
  WireSession session(fx.collector, nullptr, {}, 0, 0.0);

  Rng rng(5);
  const auto valid = fx.ValidFrame(2, rng);
  std::vector<std::uint8_t> wire;
  // Wrong-sized frame (truncated by one byte): the sink's reject, not a
  // protocol error.
  AppendWireRecord(9, {valid.data(), valid.size() - 1}, wire);
  AppendWireRecord(9, valid, wire);
  ASSERT_TRUE(session.Feed(wire, 0.0));
  EXPECT_EQ(session.counters().records, 2);
  EXPECT_EQ(session.counters().ingest.rejected, 1);
  EXPECT_EQ(session.counters().ingest.reports, 1);
  EXPECT_EQ(session.counters().protocol_errors, 0);
}

TEST(WireSessionTest, UnframeableInputIsAProtocolError) {
  SessionFixture fx;
  // Body shorter than the user id field.
  {
    WireSession session(fx.collector, nullptr, {}, 0, 0.0);
    const std::uint8_t short_body[] = {0x00, 0x03, 0xAA, 0xBB, 0xCC};
    EXPECT_FALSE(session.Feed(short_body, 0.0));
    EXPECT_EQ(session.counters().protocol_errors, 1);
  }
  // Announced frame beyond the session's max_frame bound.
  {
    WireSessionOptions options;
    options.max_frame = 16;
    WireSession session(fx.collector, nullptr, options, 0, 0.0);
    const std::uint8_t huge[] = {0xFF, 0xFF};  // body_length 65535
    EXPECT_FALSE(session.Feed(huge, 0.0));
    EXPECT_EQ(session.counters().protocol_errors, 1);
  }
}

TEST(WireSessionTest, FuzzRandomSplitPointsMatchOneShotFeed) {
  SessionFixture one_shot;
  Rng rng(4242);

  // A traffic mix: valid attributed frames, anonymous frames, wrong-sized
  // frames, random bytes at the exact frame size.
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t user = (i % 5 == 0)
                                   ? kAnonymousUser
                                   : static_cast<std::uint64_t>(i % 37);
    std::vector<std::uint8_t> frame = one_shot.ValidFrame(i % 16, rng);
    switch (i % 7) {
      case 3:
        frame.pop_back();  // wrong size -> sink reject
        break;
      case 5:
        for (auto& b : frame) {  // random bytes, exact size
          b = static_cast<std::uint8_t>(rng.UniformInt(256));
        }
        break;
      default:
        break;
    }
    AppendWireRecord(user, frame, wire);
  }

  WireSession reference(one_shot.collector, nullptr, {}, 0, 0.0);
  ASSERT_TRUE(reference.Feed(wire, 0.0));
  const Collector::Drained ref_drained = one_shot.collector.Drain();

  for (int trial = 0; trial < 25; ++trial) {
    SessionFixture fx;
    WireSession session(fx.collector, nullptr, {}, 0, 0.0);
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t chunk =
          1 + static_cast<std::size_t>(rng.UniformInt(
                  static_cast<long long>(wire.size() - offset)));
      ASSERT_TRUE(session.Feed({wire.data() + offset, chunk}, 0.0));
      offset += chunk;
    }
    EXPECT_EQ(session.counters().records, reference.counters().records);
    EXPECT_EQ(session.counters().wire_bytes,
              reference.counters().wire_bytes);
    EXPECT_EQ(session.counters().ingest.reports,
              reference.counters().ingest.reports);
    EXPECT_EQ(session.counters().ingest.rejected,
              reference.counters().ingest.rejected);
    EXPECT_EQ(session.buffered(), 0u);
    // The decoded multiset must match bit for bit, not just the tallies.
    const Collector::Drained drained = fx.collector.Drain();
    EXPECT_EQ(drained.counts, ref_drained.counts) << "trial " << trial;
    EXPECT_EQ(drained.n, ref_drained.n) << "trial " << trial;
  }
}

TEST(WireSessionTest, PacingPausesReadsWithoutDroppingRecords) {
  SessionFixture fx;
  WireSessionOptions options;
  options.conn_rate = 10.0;
  options.conn_burst = 2.0;
  WireSession session(fx.collector, nullptr, options, 0, 0.0);

  Rng rng(3);
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 8; ++i) {
    AppendWireRecord(kAnonymousUser, fx.ValidFrame(i % 16, rng), wire);
  }
  ASSERT_TRUE(session.Feed(wire, /*now=*/0.0));
  // Backpressure, not loss: every record read was processed...
  EXPECT_EQ(session.counters().ingest.reports, 8);
  // ...but the session owes 6 tokens of debt and pauses reads while it
  // refills: 8 charged - 2 burst + 1 to resume = 0.7 s.
  EXPECT_TRUE(session.paused(0.0));
  EXPECT_DOUBLE_EQ(session.resume_at(), 0.7);
  EXPECT_FALSE(session.paused(0.71));
}

TEST(WireSessionTest, PerUserAdmissionRejectsBeforeTheSink) {
  SessionFixture fx;
  AdmissionOptions admission;
  admission.per_user_rate = 1.0;
  admission.per_user_burst = 1.0;
  UserAdmissionTable users(admission);
  WireSession session(fx.collector, &users, {}, 0, 0.0);

  Rng rng(8);
  const auto frame = fx.ValidFrame(4, rng);
  std::vector<std::uint8_t> wire;
  AppendWireRecord(21, frame, wire);
  AppendWireRecord(21, frame, wire);  // over the user's burst
  AppendWireRecord(22, frame, wire);  // a different user is unaffected
  ASSERT_TRUE(session.Feed(wire, 0.0));
  EXPECT_EQ(session.counters().ingest.reports, 2);
  EXPECT_EQ(session.counters().ingest.rate_limited, 1);
  // The rate-limited record never reached the sink's lanes.
  EXPECT_EQ(fx.collector.Drain().n, 2);
}

// ---------------------------------------------------------------------------
// Duplicate (user, epoch) rejection and options plumbing
// ---------------------------------------------------------------------------

TEST(ServeIngestTest, DuplicateUserEpochRejectedWithReason) {
  auto oracle = fo::MakeOracle(fo::Protocol::kOue, 12, 1.0);
  LongitudinalCollector collector(*oracle, {});
  Rng rng(6);
  const auto frame =
      fo::SerializeReport(*oracle, oracle->Randomize(3, rng));

  collector.OpenEpoch();
  EXPECT_TRUE(collector.Ingest({frame, 42}).accepted);
  const IngestResult dup = collector.Ingest({frame, 42});
  EXPECT_FALSE(dup.accepted);
  EXPECT_EQ(dup.reason, RejectReason::kDuplicate);
  EXPECT_STREQ(RejectReasonName(dup.reason), "duplicate");
  // A duplicate is counted, never aggregated, and never double-charged.
  const EstimateSnapshot& first = collector.Seal();
  EXPECT_EQ(first.n, 1);
  EXPECT_EQ(first.stats.reports, 1);
  EXPECT_EQ(first.stats.duplicates, 1);
  EXPECT_EQ(first.stats.rejected, 0);  // not malformed
  EXPECT_EQ(first.ledger.fresh, 1);

  // The same frame in the NEXT epoch is a memoized replay, not a duplicate.
  collector.OpenEpoch();
  EXPECT_TRUE(collector.Ingest({frame, 42}).accepted);
  const EstimateSnapshot& second = collector.Seal();
  EXPECT_EQ(second.stats.duplicates, 0);
  EXPECT_EQ(second.ledger.memoized, 1);
}

TEST(ServeIngestTest, ReplayTableClassifiesFreshMemoizedDuplicate) {
  UserReplayTable table(4);
  const std::vector<std::uint8_t> a = {1, 2, 3};
  const std::vector<std::uint8_t> b = {4, 5, 6};
  using FrameClass = UserReplayTable::FrameClass;
  EXPECT_EQ(table.Classify(1, a, 0), FrameClass::kFresh);
  EXPECT_EQ(table.Classify(1, a, 0), FrameClass::kDuplicate);
  EXPECT_EQ(table.Classify(1, b, 0), FrameClass::kDuplicate);
  EXPECT_EQ(table.Classify(1, a, 1), FrameClass::kMemoized);
  EXPECT_EQ(table.Classify(1, b, 2), FrameClass::kFresh);
  // A duplicate records nothing: user 2's duplicate in epoch 0 must not
  // have consumed frame b's hash.
  EXPECT_EQ(table.Classify(2, a, 0), FrameClass::kFresh);
  EXPECT_EQ(table.Classify(2, b, 0), FrameClass::kDuplicate);
  EXPECT_EQ(table.Classify(2, b, 1), FrameClass::kFresh);
}

TEST(ServeIngestTest, FromCollectorOptionsRoundTrips) {
  CollectorOptions collector_options;
  collector_options.lanes = 3;
  const LongitudinalOptions longitudinal =
      LongitudinalOptions::FromCollector(collector_options);
  EXPECT_EQ(longitudinal.collector.lanes, 3);
  // The collector runs on the converted options: the lane count must land
  // in the sealed snapshot's pipeline.
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 8, 1.0);
  LongitudinalCollector manager(
      *oracle, LongitudinalOptions::FromCollector(collector_options));
  manager.OpenEpoch();
  EXPECT_EQ(manager.lanes(), 3);
  manager.Seal();
}

// ---------------------------------------------------------------------------
// The socket server end to end (Unix-domain socket and loopback TCP)
// ---------------------------------------------------------------------------

std::string TestSocketPath(const char* tag) {
  char path[96];
  std::snprintf(path, sizeof(path), "/tmp/ldpr_test_%s_%d.sock", tag,
                static_cast<int>(::getpid()));
  return path;
}

TEST(IngestServerTest, UdsSnapshotsBitIdenticalToInProcessPath) {
  const int k = 16;
  const long long n = 4000;
  const long long dup_every = 100;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 1.0);
  std::vector<int> values(n);
  for (long long i = 0; i < n; ++i) values[i] = static_cast<int>(i % k);
  Rng root(91);
  sim::Options encode_options;
  encode_options.threads = 1;
  const EncodedStream stream =
      EncodeScalarLoad(*oracle, values, root, encode_options);

  // Reference: the same records (duplicates included) through the
  // in-process IngestRequest path.
  LongitudinalCollector reference(*oracle, {});
  reference.OpenEpoch();
  for (long long i = 0; i < n; ++i) {
    const IngestRequest request{{stream.frame(i), stream.frame_bytes}, i};
    ASSERT_TRUE(reference.Ingest(request).accepted);
    if (i % dup_every == 0) {
      ASSERT_EQ(reference.Ingest(request).reason, RejectReason::kDuplicate);
    }
  }
  const EstimateSnapshot ref_snapshot = reference.Seal();

  // Socket path, once per transport (the test's parameter): two client
  // connections stream the framed records (every dup_every-th twice) at a
  // live server over a Unix-domain socket, then over loopback TCP.
  const std::size_t record_bytes =
      kRecordHeaderBytes + kRecordUserBytes + stream.frame_bytes;
  std::vector<std::vector<std::uint8_t>> slices;
  long long framed = 0;
  for (int c = 0; c < 2; ++c) {
    slices.push_back(FrameStreamRecords(stream, c * n / 2, (c + 1) * n / 2,
                                        /*first_user=*/0, dup_every));
    framed += static_cast<long long>(slices.back().size() / record_bytes);
  }
  for (const bool tcp : {false, true}) {
    SCOPED_TRACE(tcp ? "loopback TCP" : "UDS");
    LongitudinalCollector collector(*oracle, {});
    collector.OpenEpoch();
    ServerOptions options;
    if (tcp) {
      options.tcp_port = 0;  // ephemeral
    } else {
      options.uds_path = TestSocketPath("e2e");
    }
    IngestServer server(collector, options);
    server.Start();
    if (tcp) {
      ASSERT_GT(server.tcp_port(), 0);
    }

    std::vector<std::thread> clients;
    for (auto& slice : slices) {
      clients.emplace_back([&] {
        const SocketSendResult sent =
            tcp ? SendOverTcp(server.tcp_port(), slice)
                : SendOverUds(options.uds_path, slice);
        EXPECT_EQ(sent.bytes, static_cast<long long>(slice.size()));
      });
    }
    for (auto& t : clients) t.join();
    while (server.counters().sessions.records < framed) {
      std::this_thread::yield();
    }
    server.Stop();
    const EstimateSnapshot socket_snapshot = collector.Seal();

    // Bit-identical estimation pipeline output...
    EXPECT_EQ(socket_snapshot.n, ref_snapshot.n);
    EXPECT_EQ(socket_snapshot.counts, ref_snapshot.counts);
    EXPECT_EQ(socket_snapshot.frequencies, ref_snapshot.frequencies);
    EXPECT_EQ(socket_snapshot.consistent, ref_snapshot.consistent);
    // ...with every duplicate counted (not aggregated) on both paths.
    EXPECT_EQ(socket_snapshot.stats.duplicates,
              ref_snapshot.stats.duplicates);
    EXPECT_GT(socket_snapshot.stats.duplicates, 0);
    EXPECT_EQ(socket_snapshot.stats.reports, n);

    const ServerCounters counters = server.counters();
    EXPECT_EQ(counters.connections, 2);
    EXPECT_EQ(counters.sessions.records, framed);
    EXPECT_EQ(counters.sessions.ingest.reports, n);
    EXPECT_EQ(counters.sessions.ingest.duplicates,
              socket_snapshot.stats.duplicates);
    EXPECT_EQ(counters.sessions.protocol_errors, 0);
  }
}

TEST(IngestServerTest, ProtocolErrorClosesOnlyTheOffendingConnection) {
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 8, 1.0);
  Collector collector(*oracle, CollectorOptions{.lanes = 2});
  ServerOptions options;
  options.uds_path = TestSocketPath("protoerr");
  IngestServer server(collector, options);
  server.Start();

  // A garbage connection: unframeable body.
  const std::vector<std::uint8_t> garbage = {0x00, 0x01, 0xFF};
  SendOverUds(options.uds_path, garbage);
  // A good connection afterwards still ingests.
  Rng rng(2);
  std::vector<std::uint8_t> wire;
  AppendWireRecord(kAnonymousUser,
                   fo::SerializeReport(*oracle, oracle->Randomize(1, rng)),
                   wire);
  SendOverUds(options.uds_path, wire);
  while (server.counters().sessions.ingest.reports < 1) {
    std::this_thread::yield();
  }
  server.Stop();

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.connections, 2);
  EXPECT_EQ(counters.sessions.protocol_errors, 1);
  EXPECT_EQ(counters.sessions.ingest.reports, 1);
}

// ---------------------------------------------------------------------------
// Admin scrape endpoint
// ---------------------------------------------------------------------------

// Body of a scrape response (the part after the HTTP head).
std::string HttpBody(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  EXPECT_NE(head_end, std::string::npos) << response;
  return head_end == std::string::npos ? "" : response.substr(head_end + 4);
}

// Value of an unlabeled-or-exact-labeled series in a Prometheus text body;
// -1 when the series is absent.
long long SeriesValue(const std::string& body, const std::string& series) {
  const std::string needle = series + " ";
  std::size_t pos = body.rfind("\n" + needle);
  if (pos != std::string::npos) {
    pos += 1;
  } else if (body.rfind(needle, 0) == 0) {
    pos = 0;
  } else {
    return -1;
  }
  return std::stoll(body.substr(pos + needle.size()));
}

// The live /metrics endpoint end to end: stream records (with duplicates)
// at the server over UDS, scrape over the admin UDS, and require the
// scraped ingest counters to equal the sealed snapshot's IngestCounters
// exactly — the acceptance invariant of the telemetry layer.
TEST(AdminEndpointTest, ScrapedCountersMatchSealedSnapshotExactly) {
  const int k = 16;
  const long long n = 4000;
  const long long dup_every = 100;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 1.0);
  std::vector<int> values(n);
  for (long long i = 0; i < n; ++i) values[i] = static_cast<int>(i % k);
  Rng root(17);
  sim::Options encode_options;
  encode_options.threads = 1;
  const EncodedStream stream =
      EncodeScalarLoad(*oracle, values, root, encode_options);

  obs::MetricsRegistry registry;
  LongitudinalOptions options;
  options.collector.metrics = &registry;
  LongitudinalCollector collector(*oracle, options);
  // Frames that arrive before the epoch opens are closed-epoch rejects,
  // counted in the lanes like every other reject: the scrape and the first
  // seal both see them.
  for (long long i = 0; i < 3; ++i) {
    EXPECT_EQ(
        collector.Ingest({{stream.frame(i), stream.frame_bytes}, i}).reason,
        RejectReason::kClosedEpoch);
  }
  collector.OpenEpoch();

  ServerOptions server_options;
  server_options.uds_path = TestSocketPath("admin_ingest");
  server_options.admin_uds_path = TestSocketPath("admin_scrape");
  server_options.metrics = &registry;
  IngestServer server(collector, server_options);
  server.Start();

  const std::size_t record_bytes =
      kRecordHeaderBytes + kRecordUserBytes + stream.frame_bytes;
  const std::vector<std::uint8_t> wire =
      FrameStreamRecords(stream, 0, n, /*first_user=*/0, dup_every);
  const long long framed =
      static_cast<long long>(wire.size() / record_bytes);
  SendOverUds(server_options.uds_path, wire);
  while (server.counters().sessions.records < framed) {
    std::this_thread::yield();
  }

  // Scrape while the epoch is still open: the counters are already exact
  // because the collector's TotalsNow() merges live lane tallies.
  const std::string response =
      HttpGetOverUds(server_options.admin_uds_path, "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = HttpBody(response);

  const EstimateSnapshot snapshot = collector.Seal();
  EXPECT_EQ(SeriesValue(body, "ldpr_ingest_reports_total"),
            snapshot.stats.reports);
  EXPECT_EQ(SeriesValue(body, "ldpr_ingest_bytes_total"),
            snapshot.stats.bytes);
  EXPECT_EQ(
      SeriesValue(body, "ldpr_ingest_rejects_total{reason=\"duplicate\"}"),
      snapshot.stats.duplicates);
  EXPECT_GT(snapshot.stats.duplicates, 0);
  EXPECT_EQ(
      SeriesValue(body, "ldpr_ingest_rejects_total{reason=\"malformed\"}"),
      0);
  EXPECT_EQ(SeriesValue(body,
                        "ldpr_ingest_rejects_total{reason=\"closed-epoch\"}"),
            snapshot.stats.closed_epoch);
  EXPECT_EQ(snapshot.stats.closed_epoch, 3);
  EXPECT_EQ(SeriesValue(body, "ldpr_server_reports_total"),
            snapshot.stats.reports);
  EXPECT_EQ(SeriesValue(body, "ldpr_server_connections_total"), 1);
  // Mid-epoch the decode-block histogram lags by the rows still staged in
  // the lane (< one block); the seal above flushed them, so a fresh scrape
  // now accounts for every accepted report block by block.
  const std::string sealed_body = HttpBody(
      HttpGetOverUds(server_options.admin_uds_path, "/metrics"));
  EXPECT_EQ(SeriesValue(sealed_body, "ldpr_decode_block_rows_sum"),
            snapshot.stats.reports);
  // The user-table gauges, set at the seal from the shard counters.
  const UserTable::UserStats table = collector.user_table()->Scan();
  EXPECT_EQ(SeriesValue(sealed_body, "ldpr_user_table_users"),
            snapshot.cumulative_ledger.users);
  EXPECT_GT(snapshot.cumulative_ledger.users, 0);
  EXPECT_EQ(SeriesValue(sealed_body, "ldpr_user_table_bytes"),
            table.capacity * static_cast<long long>(UserTable::kSlotBytes) +
                table.overflow_bytes);
  EXPECT_GE(table.capacity, table.occupied);

  // The other admin routes: JSON snapshot, 404, and non-GET.
  const std::string json =
      HttpGetOverUds(server_options.admin_uds_path, "/metrics.json");
  EXPECT_EQ(json.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(HttpBody(json).find("\"ldpr_ingest_reports_total\""),
            std::string::npos);
  EXPECT_EQ(HttpGetOverUds(server_options.admin_uds_path, "/nope")
                .rfind("HTTP/1.0 404", 0),
            0u);

  server.Stop();
}

// Scrapes hammer the admin endpoint while client connections stream: every
// response must be well-formed 200 with monotonically consistent counters,
// and the final scrape must be exact. The TSan/ASan-exercised guarantee
// that scraping mid-epoch is always safe.
TEST(AdminEndpointTest, ScrapeDuringConcurrentStreamingIsSafeAndExact) {
  const int k = 8;
  const long long n = 6000;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 1.0);
  std::vector<int> values(n);
  for (long long i = 0; i < n; ++i) values[i] = static_cast<int>(i % k);
  Rng root(23);
  sim::Options encode_options;
  encode_options.threads = 1;
  const EncodedStream stream =
      EncodeScalarLoad(*oracle, values, root, encode_options);

  obs::MetricsRegistry registry;
  Collector collector(*oracle,
                      [&] {
                        CollectorOptions o;
                        o.lanes = 2;
                        o.metrics = &registry;
                        return o;
                      }());

  ServerOptions server_options;
  server_options.uds_path = TestSocketPath("mid_ingest");
  server_options.admin_uds_path = TestSocketPath("mid_scrape");
  server_options.metrics = &registry;
  IngestServer server(collector, server_options);
  server.Start();

  std::atomic<bool> done{false};
  long long last_seen = 0;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string response =
          HttpGetOverUds(server_options.admin_uds_path, "/metrics");
      ASSERT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
      const long long seen =
          SeriesValue(HttpBody(response), "ldpr_ingest_reports_total");
      ASSERT_GE(seen, last_seen);  // counters never go backwards
      last_seen = seen;
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::uint8_t> wire = FrameStreamRecords(
          stream, c * n / 2, (c + 1) * n / 2, /*first_user=*/std::nullopt);
      SendOverUds(server_options.uds_path, wire);
    });
  }
  for (auto& t : clients) t.join();
  while (server.counters().sessions.ingest.reports < n) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  scraper.join();

  const std::string body = HttpBody(
      HttpGetOverUds(server_options.admin_uds_path, "/metrics"));
  EXPECT_EQ(SeriesValue(body, "ldpr_ingest_reports_total"), n);
  server.Stop();

  const IngestCounters totals = collector.Drain().tallies;
  EXPECT_EQ(totals.reports, n);
}

// A scraper that sends GET /metrics and hangs up before reading must cost
// only its own connection: the server's response write then fails with
// EPIPE, which must not raise SIGPIPE and kill the process.
TEST(AdminEndpointTest, ScraperHangingUpBeforeReadingLeavesServerUp) {
  const int k = 8;
  const long long n = 3000;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 1.0);
  std::vector<int> values(n);
  for (long long i = 0; i < n; ++i) values[i] = static_cast<int>(i % k);
  Rng root(29);
  sim::Options encode_options;
  encode_options.threads = 1;
  const EncodedStream stream =
      EncodeScalarLoad(*oracle, values, root, encode_options);

  obs::MetricsRegistry registry;
  CollectorOptions collector_options;
  collector_options.lanes = 2;
  collector_options.metrics = &registry;
  Collector collector(*oracle, collector_options);
  ServerOptions server_options;
  server_options.uds_path = TestSocketPath("hangup_ingest");
  server_options.admin_uds_path = TestSocketPath("hangup_scrape");
  server_options.metrics = &registry;
  IngestServer server(collector, server_options);
  server.Start();
  SendOverUds(server_options.uds_path,
              FrameStreamRecords(stream, 0, n, /*first_user=*/std::nullopt));
  while (server.counters().sessions.ingest.reports < n) {
    std::this_thread::yield();
  }

  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  // Fewer hang-ups than the server's admin connection cap, so the final
  // scrape is never shed.
  for (int trial = 0; trial < 8; ++trial) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server_options.admin_uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // Hang up the read side first, so the server's response write fails
    // whichever side wins the race to the socket.
    ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    ::close(fd);
  }

  const std::string body = HttpBody(
      HttpGetOverUds(server_options.admin_uds_path, "/metrics"));
  server.Stop();
  const IngestCounters sealed = collector.Drain().tallies;
  EXPECT_EQ(sealed.reports, n);
  EXPECT_EQ(SeriesValue(body, "ldpr_ingest_reports_total"), sealed.reports);
  EXPECT_EQ(SeriesValue(body, "ldpr_ingest_bytes_total"), sealed.bytes);
  EXPECT_EQ(
      SeriesValue(body, "ldpr_ingest_rejects_total{reason=\"malformed\"}"),
      sealed.rejected);
}

}  // namespace
}  // namespace ldpr::serve
