// Ablation 9: the local-hashing domain size g. OLH fixes g = e^eps + 1 to
// minimize the estimator variance; this sweep shows both what that choice
// buys and what it costs. For k = 74 at two budgets, each g reports the
// empirical estimation MSE on a Zipf population and the single-report
// attacker's accuracy (Section 3.2.1 adversary: uniform choice within the
// reported cell's hash preimage). Expected shape: MSE is U-shaped with its
// minimum near g ~ e^eps + 1. Attacker accuracy is hump-shaped: growing g
// first helps the attacker (fewer values share a cell, so hashing hides
// less) until the in-cell GRR itself turns noisy (p' = e^eps/(e^eps+g-1)
// decays), after which accuracy falls again — the variance-optimal g sits
// on the rising flank, so g is an attack-surface knob as well.

#include <algorithm>
#include <cmath>

#include "attack/plausible_deniability.h"
#include "core/histogram.h"
#include "core/metrics.h"
#include "core/sampling.h"
#include "exp/experiment.h"
#include "exp/grid_runner.h"
#include "fo/olh.h"
#include "fo/wire.h"
#include "serve/collector.h"

namespace {

using namespace ldpr;
using exp::Cell;

void Run(exp::Context& ctx) {
  const exp::RunProfile& profile = ctx.profile();
  const int k = 74;
  const int n = static_cast<int>(profile.Mc(nullptr, 40000, 2000));
  ctx.out().Comment("# bench = abl09_olh_g");
  ctx.out().Comment(
      exp::StrPrintf("# k = %d, n = %d, Zipf(1.3) population", k, n));
  ctx.out().Config("bench", "abl09_olh_g");

  const int runs = profile.runs;
  for (double eps : {1.0, 3.0}) {
    const int g_opt =
        std::max(2, static_cast<int>(std::lround(std::exp(eps))) + 1);
    exp::TableSpec spec;
    spec.section = exp::StrPrintf("eps = %.1f (optimal g = %d)", eps, g_opt);
    spec.header = exp::StrPrintf("%-6s %12s %14s", "g", "MSE",
                                 "attack ACC(%)");
    spec.x_name = "hash_g";
    spec.columns = {"mse", "attack_acc"};
    ctx.out().BeginTable(spec);

    std::vector<int> gs = {2, 3, 5, 8, 16, 32, 64, 128};
    if (std::find(gs.begin(), gs.end(), g_opt) == gs.end()) {
      gs.push_back(g_opt);
      std::sort(gs.begin(), gs.end());
    }
    gs = profile.Grid(gs);

    // Legacy seeding: seed = 7 per section, Rng(++seed * 467) per trial.
    const auto means = exp::RunGrid(
        static_cast<int>(gs.size()), runs, 2, [&](int point, int trial) {
          const std::uint64_t seed =
              7 + static_cast<std::uint64_t>(point) * runs + trial + 1;
          Rng rng(seed * 467);
          CategoricalSampler population(ZipfDistribution(k, 1.3));
          std::vector<int> values(n);
          for (int& v : values) v = population.Sample(rng);
          const std::vector<double> truth = EmpiricalFrequency(values, k);

          // Each user's report takes the serving path: its wire image is
          // ingested and the drained counts feed Eq. (2).
          fo::Olh oracle(k, eps, gs[point]);
          serve::Collector collector(oracle, {.lanes = 1});
          for (int v : values) {
            const std::vector<std::uint8_t> frame =
                fo::SerializeReport(oracle, oracle.Randomize(v, rng));
            collector.Ingest({.frame = frame});
          }
          const serve::Collector::Drained drained = collector.Drain();
          const double mse = Mse(
              truth, oracle.EstimateFromCounts(drained.counts, drained.n));
          const double acc =
              attack::EmpiricalAttackAccPercent(oracle, values, rng);
          return std::vector<double>{mse, acc};
        });

    for (std::size_t p = 0; p < gs.size(); ++p) {
      ctx.out().Row({Cell::Integer("%-6d", gs[p]),
                     Cell::Number(" %12.4e", means[p][0]),
                     Cell::Number(" %14.2f", means[p][1])});
    }
  }
}

const exp::Registrar kRegistrar{{
    /*name=*/"abl09",
    /*title=*/"abl09_olh_g",
    /*description=*/
    "OLH hash-domain size g: estimation MSE vs attacker accuracy",
    /*group=*/"ablation",
    /*datasets=*/{},
    /*run=*/Run,
}};

}  // namespace
