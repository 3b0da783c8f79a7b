// The sharded simulation engine (sim::ShardedRun): deterministic per-shard
// RNG streams must give every user the same draws under any thread count
// (guarding against shared-state races), shard boundaries must depend only
// on n, and successive runs must see fresh streams. The load generator's
// byte-identical traffic across LDPR_THREADS rests on this contract.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/rng.h"
#include "sim/engine.h"

namespace ldpr::sim {
namespace {

/// One ShardedRun over n users in which every user takes two draws from
/// its shard's stream; returns the draws in user order.
std::vector<std::uint64_t> UserDraws(long long n, Rng& root,
                                     const Options& options) {
  std::vector<std::uint64_t> draws(2 * n);
  ShardedRun(n, root, options,
             [&](int, long long lo, long long hi, Rng& rng) {
               for (long long user = lo; user < hi; ++user) {
                 draws[2 * user] = rng();
                 draws[2 * user + 1] = rng();
               }
             });
  return draws;
}

/// Runs fn with LDPR_THREADS set to `threads`, restoring the prior value.
template <typename Fn>
auto WithThreadsEnv(const char* threads, Fn fn) {
  const char* old = std::getenv("LDPR_THREADS");
  std::string saved = old ? old : "";
  setenv("LDPR_THREADS", threads, 1);
  auto result = fn();
  if (old) {
    setenv("LDPR_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("LDPR_THREADS");
  }
  return result;
}

TEST(ShardedRunTest, ShardsPartitionTheRange) {
  // ShardedRun's shard boundaries come from ParallelForShards; pin its
  // contiguous partition at a shard count that does not divide n.
  std::vector<long long> seen(7, -1);
  std::vector<std::pair<long long, long long>> ranges(7);
  ParallelForShards(100, 7, [&](int shard, long long lo, long long hi) {
    seen[shard] = shard;
    ranges[shard] = {lo, hi};
  });
  long long covered = 0;
  for (int s = 0; s < 7; ++s) {
    EXPECT_EQ(seen[s], s) << "shard " << s << " never ran";
    EXPECT_LE(ranges[s].first, ranges[s].second);
    covered += ranges[s].second - ranges[s].first;
    if (s > 0) {
      EXPECT_EQ(ranges[s].first, ranges[s - 1].second);
    }
  }
  EXPECT_EQ(covered, 100);
}

TEST(ShardedRunTest, ShardStreamsAreIndependentOfThreadCount) {
  auto run = [](int threads) {
    Rng root(99);
    Options options;
    options.threads = threads;
    return UserDraws(20000, root, options);
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ShardedRunTest, LdprThreadsEnvDoesNotChangeResults) {
  // LDPR_THREADS in {1, 4} with the same seed must be bit-identical
  // (threads = 0 defers to the env knob).
  auto run = [] {
    Rng root(1234);
    return UserDraws(20000, root, Options{});
  };
  const std::vector<std::uint64_t> one = WithThreadsEnv("1", run);
  const std::vector<std::uint64_t> four = WithThreadsEnv("4", run);
  EXPECT_EQ(one, four);
}

TEST(ShardedRunTest, AutoShardCountDependsOnlyOnN) {
  EXPECT_EQ(AutoShardCount(0), 0);
  EXPECT_EQ(AutoShardCount(1), 1);
  EXPECT_EQ(AutoShardCount(4096), 1);
  EXPECT_EQ(AutoShardCount(4097), 2);
  EXPECT_EQ(AutoShardCount(1 << 20), 256);
  EXPECT_EQ(AutoShardCount(100000000), 256);  // clamped
}

TEST(ShardedRunTest, SuccessiveRunsUseFreshStreams) {
  Rng root(7);
  const std::vector<std::uint64_t> a = UserDraws(5000, root, Options{});
  const std::vector<std::uint64_t> b = UserDraws(5000, root, Options{});
  EXPECT_NE(a, b);  // same root, advanced stream
}

}  // namespace
}  // namespace ldpr::sim
