#include "sim/engine.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/parallel.h"

namespace ldpr::sim {

int AutoShardCount(long long n) {
  if (n <= 0) return 0;
  // Enough shards to keep any sane worker pool busy, few enough that the
  // fixed per-shard cost (an RNG fork plus a tally or buffer) stays
  // negligible. Depends only on n so that one seed gives one result on
  // every machine.
  constexpr long long kUsersPerShard = 4096;
  const long long shards = (n + kUsersPerShard - 1) / kUsersPerShard;
  return static_cast<int>(std::clamp<long long>(shards, 1, 256));
}

void ShardedRun(
    long long n, Rng& root, const Options& options,
    const std::function<void(int, long long, long long, Rng&)>& fn) {
  const int shards = AutoShardCount(n);
  if (shards <= 0) return;
  // One Split advances the root (so back-to-back runs get fresh streams);
  // Fork(s) then derives shard streams without any shared mutable state.
  const Rng base = root.Split();
  ParallelForShards(
      n, shards,
      [&](int shard, long long lo, long long hi) {
        Rng rng = base.Fork(static_cast<std::uint64_t>(shard));
        fn(shard, lo, hi, rng);
      },
      options.threads);
}

void RunCells(long long num_cells, const std::function<void(long long)>& fn,
              int threads) {
  ParallelFor(0, num_cells, fn, threads);
}

long long ShardedTally(
    long long n, Rng& root, const Options& options,
    const std::function<long long(long long, long long, Rng&)>& counter) {
  const int shards = AutoShardCount(n);
  std::vector<long long> tallies(std::max(shards, 0), 0);
  ShardedRun(n, root, options,
             [&](int shard, long long lo, long long hi, Rng& rng) {
               tallies[shard] = counter(lo, hi, rng);
             });
  long long total = 0;
  for (long long t : tallies) total += t;
  return total;
}

}  // namespace ldpr::sim
