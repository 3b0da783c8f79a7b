#ifndef LDPR_EXP_PROFILE_H_
#define LDPR_EXP_PROFILE_H_

// Run-scale presets for the experiment subsystem.
//
// Environment knobs honoured by RunProfile::FromEnv() (the historical bench
// defaults; see README "Experiments"):
//   LDPR_RUNS            repetitions averaged per grid point   (default 3)
//   LDPR_SCALE           dataset scale factor in (0, 1]        (default:
//                        0.2 for attack sweeps, 1.0 / 0.5 for the cheap
//                        estimation-only scenarios — each scenario declares
//                        its own default)
//   LDPR_REIDENT_TARGETS matcher target subsample              (default 3000)
//   LDPR_THREADS         worker threads                        (default: cores)
//   LDPR_GBDT_ROUNDS     AIF attack GBDT boosting rounds       (default 8)
//   LDPR_GBDT_DEPTH      AIF attack GBDT tree depth            (default 4)
//   LDPR_FIG01_TRIALS    fig01 panel (c) Monte-Carlo trials    (default 20000)
//   LDPR_SMOKE           when set, every experiment runs the smoke preset
//   LDPR_PROFILE         fidelity/scale preset: "legacy" (default),
//                        "fast" (closed-form estimation paths; new RNG
//                        streams, separately pinned goldens), or "smoke"
//                        (alias for LDPR_SMOKE). "fast" composes with the
//                        smoke preset: LDPR_SMOKE=1 LDPR_PROFILE=fast runs
//                        the closed-form paths at smoke scale.
//
// The paper uses 20 runs at full n on a compute cluster; the FromEnv()
// defaults reproduce every curve's *shape* on a laptop in minutes. Set
// LDPR_RUNS=20 LDPR_SCALE=1 LDPR_REIDENT_TARGETS=0 for a full-fidelity run.
// Smoke() is the CI preset: tiny populations, one trial, truncated grids —
// every registered experiment finishes in well under a minute combined.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ml/gbdt.h"

namespace ldpr::exp {

struct RunProfile {
  /// How estimation-only scenarios simulate the population.
  enum class Fidelity {
    /// Per-user simulation, bit-identical to the historical drivers for any
    /// fixed environment (the existing goldens pin this path).
    kLegacyExact,
    /// Closed-form tally sampling (sim/closed_form.h): per attribute
    /// distribution-exact, orders of magnitude faster at full scale, on its
    /// own RNG streams (separate *_fast goldens).
    kFast,
  };

  bool smoke = false;
  Fidelity fidelity = Fidelity::kLegacyExact;

  int runs = 3;                ///< trials averaged per grid point
  int reident_targets = 3000;  ///< matcher subsample; <= 0 means all users
  bool has_scale_override = false;  ///< LDPR_SCALE was set
  double scale_override = 0.2;      ///< LDPR_SCALE value when set
  double smoke_scale = 0.02;        ///< dataset scale under the smoke preset
  std::size_t grid_cap = 3;         ///< max grid points under smoke
  std::size_t shortlist_cap = 2;    ///< max curves/protocols under smoke
  ml::GbdtConfig gbdt;              ///< AIF attack classifier size

  /// The historical env-driven preset (bit-identical to the pre-registry
  /// bench drivers for any fixed environment). Does not consult
  /// LDPR_PROFILE — use Resolve() for the full env contract.
  static RunProfile FromEnv();
  /// The CI/`--smoke` preset.
  static RunProfile Smoke();
  /// The full environment contract: Smoke() when LDPR_SMOKE is set or
  /// LDPR_PROFILE=smoke, FromEnv() otherwise; LDPR_PROFILE=fast then flips
  /// the fidelity to kFast on either base. Rejects unknown LDPR_PROFILE
  /// values.
  static RunProfile Resolve();

  bool fast() const { return fidelity == Fidelity::kFast; }

  /// Dataset scale: the scenario's own default, overridden by LDPR_SCALE,
  /// collapsed to smoke_scale under smoke.
  double Scale(double scenario_default) const {
    if (smoke) return smoke_scale;
    return has_scale_override ? scale_override : scenario_default;
  }
  /// The attack-sweep default (legacy bench::BenchScale()).
  double BenchScale() const { return Scale(0.2); }

  /// Monte-Carlo style counts (trials, simulated users): `env` (may be null)
  /// overrides `full`; smoke runs use `smoke_value`.
  long long Mc(const char* env, long long full, long long smoke_value) const;

  /// A scenario-chosen count (e.g. #surveys) shrunk under smoke.
  int Count(int full, int smoke_value) const {
    return smoke ? std::min(full, smoke_value) : full;
  }

  /// Truncates an x-axis grid to grid_cap points under smoke.
  template <typename T>
  std::vector<T> Grid(std::vector<T> xs) const {
    if (smoke && xs.size() > grid_cap) xs.resize(grid_cap);
    return xs;
  }

  /// Truncates a curve/protocol/panel list to shortlist_cap under smoke.
  template <typename T>
  std::vector<T> Shortlist(std::vector<T> items) const {
    if (smoke && items.size() > shortlist_cap) items.resize(shortlist_cap);
    return items;
  }
};

}  // namespace ldpr::exp

#endif  // LDPR_EXP_PROFILE_H_
