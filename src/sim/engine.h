#ifndef LDPR_SIM_ENGINE_H_
#define LDPR_SIM_ENGINE_H_

#include <functional>

#include "core/rng.h"

namespace ldpr::sim {

/// Knobs for the sharded simulation engine. Defaults reproduce one result
/// for one seed regardless of the machine: shard boundaries and shard RNG
/// streams depend only on n (never on the thread count or LDPR_THREADS).
struct Options {
  int threads = 0;  ///< ParallelFor workers; 0 = LDPR_THREADS / cores.
};

/// Deterministic shard count for n users — a function of n only.
int AutoShardCount(long long n);

/// Runs fn(shard, begin, end, rng) over AutoShardCount(n) contiguous user
/// ranges in parallel. Shard s draws from an independent stream Forked off
/// one Split of `root`, so a fixed root seed gives identical results under
/// any thread count; `root` advances by exactly one Split per call, so
/// successive ShardedRun calls see fresh streams.
void ShardedRun(
    long long n, Rng& root, const Options& options,
    const std::function<void(int, long long, long long, Rng&)>& fn);

/// Runs fn(cell) for every cell in [0, num_cells) across the worker pool.
/// The experiment layer's GridRunner uses this to parallelize (grid-point,
/// trial) cells: fn must derive all of its randomness from the cell index
/// (deterministic per-cell RNG construction), so results are independent of
/// scheduling. Nested ShardedRun/ParallelFor calls inside fn run inline
/// (core/parallel's nesting guard), so cell-level parallelism composes with
/// per-user sharding without oversubscribing the machine.
void RunCells(long long num_cells, const std::function<void(long long)>& fn,
              int threads = 0);

/// Sharded counting sweep: runs counter(begin, end, rng) per shard (same
/// stream/sharding rules as ShardedRun) and returns the summed tallies.
/// Collapses the tally-vector + merge boilerplate of Monte-Carlo drivers.
long long ShardedTally(
    long long n, Rng& root, const Options& options,
    const std::function<long long(long long, long long, Rng&)>& counter);

}  // namespace ldpr::sim

#endif  // LDPR_SIM_ENGINE_H_
