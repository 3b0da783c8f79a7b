#ifndef LDPR_EXP_MEASURE_H_
#define LDPR_EXP_MEASURE_H_

// Shared measurement loops for the estimation-only scenarios.
//
// The legacy-exact ("serial") helper reproduces the historical drivers'
// idiom draw for draw: randomize every user in record order into a report
// vector, estimate, score — one serial RNG stream, never the sharded
// per-worker streams of sim::ShardedRun, which would change the pinned
// sequences. Keep it byte-stable: the legacy goldens and the bit-identical
// contract of the ported scenarios depend on it.

#include <vector>

#include "core/metrics.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "multidim/closed_form.h"

namespace ldpr::exp {

/// One legacy-exact collection round: randomize all n users serially
/// through `protocol` (any solution with RandomizeUser + Estimate — RS+FD,
/// RS+RFD, their adaptive variants, SMP) and return the per-attribute
/// estimates.
template <typename Protocol>
std::vector<std::vector<double>> SerialEstimate(const Protocol& protocol,
                                                const data::Dataset& ds,
                                                Rng& rng) {
  std::vector<decltype(protocol.RandomizeUser(ds.Record(0), rng))> reports;
  reports.reserve(ds.n());
  for (int i = 0; i < ds.n(); ++i) {
    reports.push_back(protocol.RandomizeUser(ds.Record(i), rng));
  }
  return protocol.Estimate(reports);
}

/// SerialEstimate scored against the dataset's true marginals.
template <typename Protocol>
double SerialProtocolMse(const Protocol& protocol, const data::Dataset& ds,
                         const std::vector<std::vector<double>>& truth,
                         Rng& rng) {
  return MseAvg(truth, SerialEstimate(protocol, ds, rng));
}

/// The fast-profile counterpart: one closed-form collection round over the
/// scenario's hoisted per-attribute histograms, scored the same way. Any
/// solution with a multidim::EstimateClosedForm overload.
template <typename Protocol>
double ClosedFormProtocolMse(const Protocol& protocol,
                             const multidim::AttributeHistograms& hists,
                             long long n,
                             const std::vector<std::vector<double>>& truth,
                             Rng& rng) {
  return MseAvg(truth, multidim::EstimateClosedForm(protocol, hists, n, rng));
}

}  // namespace ldpr::exp

#endif  // LDPR_EXP_MEASURE_H_
