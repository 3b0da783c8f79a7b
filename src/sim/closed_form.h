#ifndef LDPR_SIM_CLOSED_FORM_H_
#define LDPR_SIM_CLOSED_FORM_H_

// The dataset-facing half of the closed-form ("fast profile")
// multidimensional estimation path.
//
// A dataset is summarized once into per-attribute true-value histograms;
// every simulated collection round then draws its aggregate support counts
// straight from the closed-form samplers in multidim/closed_form.h
// (multidim::EstimateClosedForm) — no per-user loop anywhere.
//
// The RNG streams necessarily differ from the per-user legacy path
// (RandomizeUser + Estimate(reports)), so the experiment layer gates this
// path behind exp::RunProfile::Fidelity::kFast and pins separate goldens;
// per attribute the sampled estimates are distribution-exact
// (sim_fast_profile_test asserts the 3-sigma equivalence).

#include "data/dataset.h"
#include "multidim/closed_form.h"

namespace ldpr::sim {

/// Summarizes the dataset into per-attribute true-value histograms — the
/// only pass over the n users the fast profile ever makes. Scenarios hoist
/// this out of their grid loops (O(n d) once, O(sum_j k_j) per cell after).
multidim::AttributeHistograms BuildAttributeHistograms(
    const data::Dataset& dataset);

}  // namespace ldpr::sim

#endif  // LDPR_SIM_CLOSED_FORM_H_
