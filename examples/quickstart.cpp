// Quickstart: sanitize one categorical attribute with each of the five LDP
// frequency oracles, estimate its distribution server-side, and measure how
// well the single-report "plausible deniability" adversary can undo the
// randomization (Sections 2.2 and 3.2.1 of the paper).
//
// The collection runs on the serving pipeline: the load generator
// randomizes and wire-encodes every user's value (sharded across
// LDPR_THREADS workers on per-shard RNG streams that depend only on n), a
// serve::Collector ingests the frames over its lanes, and Eq. (2) runs on
// the drained support counts. The thread count never changes the output.
//
// Run:  ./quickstart [epsilon]     (LDPR_THREADS=4 ./quickstart to shard)

#include <cstdio>
#include <cstdlib>

#include "attack/plausible_deniability.h"
#include "core/histogram.h"
#include "core/metrics.h"
#include "core/rng.h"
#include "core/sampling.h"
#include "fo/analytic_acc.h"
#include "fo/factory.h"
#include "serve/collector.h"
#include "serve/loadgen.h"

int main(int argc, char** argv) {
  const double epsilon = argc > 1 ? std::atof(argv[1]) : 1.0;
  const int k = 16;     // attribute domain size
  const int n = 50000;  // population size
  ldpr::Rng rng(2023);

  // A skewed "true" population: Zipf-distributed values.
  ldpr::CategoricalSampler population(ldpr::ZipfDistribution(k, 1.3));
  std::vector<int> values(n);
  for (int i = 0; i < n; ++i) values[i] = population.Sample(rng);
  const std::vector<double> truth = ldpr::EmpiricalFrequency(values, k);

  std::printf("Quickstart: n=%d users, k=%d values, epsilon=%.2f\n\n", n, k,
              epsilon);
  std::printf("%-6s %12s %14s %16s\n", "proto", "MSE", "attack ACC(%)",
              "analytic ACC(%)");
  for (ldpr::fo::Protocol protocol : ldpr::fo::AllProtocols()) {
    auto oracle = ldpr::fo::MakeOracle(protocol, k, epsilon);

    // Client side: one wire frame per user. Server side: ingest every
    // frame, drain the lanes, and estimate from the summed counts.
    const ldpr::serve::EncodedStream frames =
        ldpr::serve::EncodeScalarLoad(*oracle, values, rng);
    ldpr::serve::Collector collector(*oracle);
    ldpr::serve::IngestStream(collector, frames);
    const ldpr::serve::Collector::Drained drained = collector.Drain();
    const double mse = ldpr::Mse(
        truth, oracle->EstimateFromCounts(drained.counts, drained.n));

    // The adversary's view: one sanitized report per user.
    const double attack_acc =
        ldpr::attack::EmpiricalAttackAccPercent(*oracle, values, rng);
    const double analytic_acc =
        100.0 * ldpr::fo::ExpectedAttackAcc(protocol, epsilon, k);

    std::printf("%-6s %12.3e %14.2f %16.2f\n",
                ldpr::fo::ProtocolName(protocol), mse, attack_acc,
                analytic_acc);
  }

  std::printf(
      "\nTakeaway: utility-optimal protocols (OUE/OLH) also grant the\n"
      "single-report adversary the least accuracy; GRR leaks the most for\n"
      "small domains. Increase epsilon to watch both effects grow.\n");
  return 0;
}
