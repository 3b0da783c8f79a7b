// Multidimensional survey: compare the utility (averaged MSE) of every
// solution for collecting d attributes under one privacy budget —
// SPL (split the budget), SMP (sample one attribute), RS+FD (sample + hide
// behind uniform fakes) and RS+RFD (this paper's countermeasure with
// realistic fakes), on an ACSEmployment-like synthetic census.
//
// Every solution runs on the serving pipeline: the load generator encodes
// one wire tuple per user (sharded across LDPR_THREADS workers on per-shard
// RNG streams that depend only on n), a serve::MultidimCollector ingests
// the tuples over its lanes, and the sealed epoch holds the per-attribute
// estimates. The thread count never changes the output.
//
// Run:  ./multidim_survey [epsilon] [scale]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/metrics.h"
#include "core/rng.h"
#include "data/priors.h"
#include "data/synthetic.h"
#include "multidim/rsfd.h"
#include "multidim/rsrfd.h"
#include "multidim/smp.h"
#include "multidim/spl.h"
#include "serve/loadgen.h"
#include "serve/multidim_collector.h"

namespace {

/// Encodes every user's record with `encode` (one of the serve::Encode*Load
/// functions), ingests the tuples and seals the per-attribute estimates.
template <typename Solution>
std::vector<std::vector<double>> Collect(
    const Solution& solution, const ldpr::data::Dataset& ds, ldpr::Rng& rng,
    ldpr::serve::EncodedFrames (*encode)(const Solution&,
                                         const ldpr::data::Dataset&,
                                         ldpr::Rng&,
                                         const ldpr::sim::Options&)) {
  ldpr::serve::MultidimCollector collector(solution);
  ldpr::serve::IngestFrames(collector, encode(solution, ds, rng, {}));
  return collector.Seal().estimates;
}

}  // namespace

int main(int argc, char** argv) {
  const double epsilon = argc > 1 ? std::atof(argv[1]) : 1.0;
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;
  ldpr::Rng rng(7);

  ldpr::data::Dataset ds = ldpr::data::AcsEmploymentLike(99, scale);
  const auto truth = ds.Marginals();
  std::printf("ACSEmployment-like census: n=%d users, d=%d attributes\n",
              ds.n(), ds.d());
  std::printf("privacy budget epsilon=%.2f\n\n", epsilon);

  // --- SPL: every attribute at eps/d.
  {
    ldpr::multidim::Spl spl(ldpr::fo::Protocol::kGrr, ds.domain_sizes(),
                            epsilon);
    const auto estimates = Collect(spl, ds, rng, ldpr::serve::EncodeSplLoad);
    std::printf("%-24s MSE_avg = %.3e\n", "SPL[GRR]",
                ldpr::MseAvg(truth, estimates));
  }

  // --- SMP: one attribute per user at full eps.
  {
    ldpr::multidim::Smp smp(ldpr::fo::Protocol::kGrr, ds.domain_sizes(),
                            epsilon);
    const auto estimates = Collect(smp, ds, rng, ldpr::serve::EncodeSmpLoad);
    std::printf("%-24s MSE_avg = %.3e   (discloses sampled attribute!)\n",
                "SMP[GRR]", ldpr::MseAvg(truth, estimates));
  }

  // --- RS+FD: sampled attribute at amplified eps', uniform fakes elsewhere.
  {
    ldpr::multidim::RsFd rsfd(ldpr::multidim::RsFdVariant::kGrr,
                              ds.domain_sizes(), epsilon);
    const auto estimates = Collect(rsfd, ds, rng, ldpr::serve::EncodeRsFdLoad);
    std::printf("%-24s MSE_avg = %.3e   (eps' = %.2f)\n", "RS+FD[GRR]",
                ldpr::MseAvg(truth, estimates), rsfd.amplified_epsilon());
  }

  // --- RS+RFD: realistic fakes from Laplace-perturbed ("Correct") priors.
  {
    auto priors = ldpr::data::BuildPriors(
        ds, ldpr::data::PriorKind::kCorrectLaplace, rng,
        /*total_central_eps=*/0.1, ldpr::data::kAcsEmploymentN);
    ldpr::multidim::RsRfd rsrfd(ldpr::multidim::RsRfdVariant::kGrr,
                                ds.domain_sizes(), epsilon, priors);
    const auto estimates =
        Collect(rsrfd, ds, rng, ldpr::serve::EncodeRsRfdLoad);
    std::printf("%-24s MSE_avg = %.3e   (the countermeasure, Sec. 5)\n",
                "RS+RFD[GRR] correct", ldpr::MseAvg(truth, estimates));
  }

  std::printf(
      "\nExpected ordering: SPL worst; RS+RFD best of the attribute-hiding\n"
      "solutions thanks to fake data drawn from realistic priors.\n");
  return 0;
}
