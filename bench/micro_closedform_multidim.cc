// Microbenchmark (google-benchmark) for the closed-form multidimensional
// estimation path behind the fast profile: one full collection round per
// solution at n users over a mixed-k attribute profile, drawn by
// multidim::EstimateClosedForm over hoisted per-attribute histograms —
// O(sum_j k_j) RNG draws per round regardless of n (the per-round cost the
// fast profile pays inside a grid cell; the one-off histogram build is
// amortized like the scenarios amortize it). The Wang et al. numeric mean
// estimators are measured both per user and closed-form.
//
// The per-user collection of the same solutions is measured on the serving
// path (micro_serve's BM_MultidimIngest). The CI benchmark-regression gate
// tracks both this binary and micro_batch (tools/check_bench_regression.py
// against tools/bench_baseline.json).

#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "data/priors.h"
#include "data/synthetic.h"
#include "multidim/closed_form.h"
#include "multidim/numeric.h"
#include "multidim/rsfd.h"
#include "multidim/rsrfd.h"
#include "multidim/smp.h"
#include "multidim/spl.h"

namespace {

using namespace ldpr;

// ACS-like mixed attribute profile: small binary attributes up to the
// k = 92 tail that dominates UE payload cost.
const std::vector<int>& DomainSizes() {
  static const std::vector<int> k = {2, 4, 8, 16, 32, 92};
  return k;
}

std::vector<std::vector<int>> MakeRecords(long long n) {
  const auto& k = DomainSizes();
  std::vector<std::vector<int>> records(n, std::vector<int>(k.size()));
  for (long long i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k.size(); ++j) {
      records[i][j] = static_cast<int>((i * 31 + j * 17 + i / 7) % k[j]);
    }
  }
  return records;
}

multidim::AttributeHistograms MakeHistograms(
    const std::vector<std::vector<int>>& records) {
  const auto& k = DomainSizes();
  multidim::AttributeHistograms hists(k.size());
  for (std::size_t j = 0; j < k.size(); ++j) hists[j].assign(k[j], 0);
  for (const auto& record : records) {
    for (std::size_t j = 0; j < k.size(); ++j) ++hists[j][record[j]];
  }
  return hists;
}

std::vector<std::vector<double>> MakePriors() {
  // Mildly skewed priors for the RS+RFD benchmarks.
  std::vector<std::vector<double>> priors;
  for (int k : DomainSizes()) {
    std::vector<double> p(k);
    for (int v = 0; v < k; ++v) p[v] = 1.0 + (v % 3);
    priors.push_back(p);
  }
  return priors;
}

template <typename Solution>
void ClosedFormRound(const Solution& solution,
                     const multidim::AttributeHistograms& hists, long long n,
                     Rng& rng) {
  auto est = multidim::EstimateClosedForm(solution, hists, n, rng);
  benchmark::DoNotOptimize(est);
}

template <typename MakeSolution>
void BM_ClosedForm(benchmark::State& state, MakeSolution make) {
  const long long n = state.range(0);
  const auto hists = MakeHistograms(MakeRecords(n));
  const auto solution = make();
  Rng rng(1);
  for (auto _ : state) ClosedFormRound(solution, hists, n, rng);
  state.SetItemsProcessed(state.iterations() * n);
}

auto MakeRsFdGrr() {
  return multidim::RsFd(multidim::RsFdVariant::kGrr, DomainSizes(), 1.0);
}
auto MakeRsFdOueR() {
  return multidim::RsFd(multidim::RsFdVariant::kOueR, DomainSizes(), 1.0);
}
auto MakeRsRfdGrr() {
  return multidim::RsRfd(multidim::RsRfdVariant::kGrr, DomainSizes(), 1.0,
                         MakePriors());
}
auto MakeSmpOue() {
  return multidim::Smp(fo::Protocol::kOue, DomainSizes(), 1.0);
}
auto MakeSplGrr() {
  return multidim::Spl(fo::Protocol::kGrr, DomainSizes(), 1.0);
}

void BM_NumericMean(benchmark::State& state, bool closed_form,
                    multidim::NumericMechanism mechanism) {
  const long long n = state.range(0);
  const int d = 8;
  const multidim::NumericLdp mech(mechanism, 1.0, 64);
  std::vector<std::vector<double>> columns(d);
  std::vector<std::vector<long long>> hists(d);
  for (int j = 0; j < d; ++j) {
    columns[j].resize(n);
    hists[j].assign(64, 0);
    for (long long i = 0; i < n; ++i) {
      const int g = static_cast<int>((i * 13 + j * 29) % 64);
      columns[j][i] = mech.GridValue(g);
      ++hists[j][g];
    }
  }
  Rng rng(1);
  for (auto _ : state) {
    auto est = closed_form
                   ? multidim::EstimateNumericMeansClosedForm(mech, hists, rng)
                   : multidim::EstimateNumericMeans(mech, columns, rng);
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

}  // namespace

// One full round at n = 1M per solution.
BENCHMARK_CAPTURE(BM_ClosedForm, rsfd_grr, MakeRsFdGrr)
    ->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ClosedForm, rsfd_ouer, MakeRsFdOueR)
    ->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ClosedForm, rsrfd_grr, MakeRsRfdGrr)
    ->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ClosedForm, smp_oue, MakeSmpOue)
    ->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ClosedForm, spl_grr, MakeSplGrr)
    ->Arg(1 << 20)->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_NumericMean, duchi_per_user, false,
                  multidim::NumericMechanism::kDuchi)
    ->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NumericMean, duchi_closed_form, true,
                  multidim::NumericMechanism::kDuchi)
    ->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NumericMean, pm_per_user, false,
                  multidim::NumericMechanism::kPiecewise)
    ->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NumericMean, pm_closed_form, true,
                  multidim::NumericMechanism::kPiecewise)
    ->Arg(1 << 20)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
