// Microbenchmark (google-benchmark) for the batch collection round: one
// full round (client randomization + server aggregation + Eq. 2 estimate)
// for n users at k = 100, measured two ways:
//
//   scalar      — the historical idiom: materialize a std::vector<Report>,
//                 then a second pass of AccumulateSupport + estimate.
//   closed_form — Aggregator::AccumulateHistogram: O(k) RNG draws for the
//                 whole batch (per-cell distribution-exact).
//
// For OUE/SUE at n = 1M the closed_form path runs orders of magnitude
// faster than scalar; items_per_second makes the comparison direct.
// BM_CollectScalar/oue is also the CI gate's calibration bench.

#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "fo/factory.h"

namespace {

using namespace ldpr;

constexpr int kDomain = 100;

std::vector<int> MakeValues(long long n) {
  std::vector<int> values(n);
  for (long long i = 0; i < n; ++i) {
    values[i] = static_cast<int>((i * 37 + i / 11) % kDomain);
  }
  return values;
}

void BM_CollectScalar(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const std::vector<int> values = MakeValues(n);
  Rng rng(1);
  for (auto _ : state) {
    std::vector<fo::Report> reports;
    reports.reserve(n);
    for (int v : values) reports.push_back(oracle->Randomize(v, rng));
    std::vector<long long> counts(kDomain, 0);
    for (const fo::Report& r : reports) {
      oracle->AccumulateSupport(r, &counts);
    }
    auto est = oracle->EstimateFromCounts(counts, n);
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_CollectClosedForm(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const std::vector<int> values = MakeValues(n);
  Rng rng(1);
  for (auto _ : state) {
    // Histogramming the raw values is part of the measured work.
    std::vector<long long> hist(kDomain, 0);
    for (int v : values) ++hist[v];
    auto agg = oracle->MakeAggregator();
    agg->AccumulateHistogram(hist, rng);
    auto est = agg->Estimate();
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// Aggregation only, reports pre-materialized: the per-report scalar
// AccumulateSupport walk, with client randomization outside the timed
// region. The wire block kernels every served report takes are measured
// in bench/micro_serve.
void BM_AggregateScalar(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const std::vector<int> values = MakeValues(n);
  Rng rng(1);
  std::vector<fo::Report> reports;
  reports.reserve(n);
  for (int v : values) reports.push_back(oracle->Randomize(v, rng));
  for (auto _ : state) {
    std::vector<long long> counts(kDomain, 0);
    for (const fo::Report& r : reports) {
      oracle->AccumulateSupport(r, &counts);
    }
    auto est = oracle->EstimateFromCounts(counts, n);
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

}  // namespace

// The issue's acceptance pair: OUE and SUE at n = 1M, k = 100.
BENCHMARK_CAPTURE(BM_CollectScalar, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectClosedForm, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectScalar, sue, fo::Protocol::kSue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectClosedForm, sue, fo::Protocol::kSue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

// The other three protocols at a smaller n, for the full picture.
BENCHMARK_CAPTURE(BM_CollectScalar, grr, fo::Protocol::kGrr)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_CollectClosedForm, grr, fo::Protocol::kGrr)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_CollectScalar, olh, fo::Protocol::kOlh)->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CollectClosedForm, olh, fo::Protocol::kOlh)->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CollectScalar, ss, fo::Protocol::kSs)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_CollectClosedForm, ss, fo::Protocol::kSs)->Arg(1 << 18);

// Scalar aggregation alone over pre-materialized reports.
BENCHMARK_CAPTURE(BM_AggregateScalar, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AggregateScalar, sue, fo::Protocol::kSue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AggregateScalar, ss, fo::Protocol::kSs)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_AggregateScalar, olh, fo::Protocol::kOlh)->Arg(1 << 16);

BENCHMARK_MAIN();
