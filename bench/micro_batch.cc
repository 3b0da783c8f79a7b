// Microbenchmark (google-benchmark) for the batched randomize/aggregate
// pipeline: one full collection round (client randomization + server
// aggregation + Eq. 2 estimate) for n users at k = 100, measured four ways:
//
//   scalar      — the historical idiom: materialize a std::vector<Report>,
//                 then a second pass of AccumulateSupport + estimate.
//   streaming   — BatchRandomize into an Aggregator sink: same RNG stream,
//                 one reused scratch Report, no report vector.
//   fused       — Aggregator::AccumulateValue: same RNG stream; GRR and SS
//                 tally without a Report, OLH and UE randomize into one
//                 and stage it for their block kernels.
//   closed_form — Aggregator::AccumulateHistogram: O(k) RNG draws for the
//                 whole batch (per-cell distribution-exact).
//
// The issue's acceptance bar — >= 3x batched-over-scalar throughput for
// OUE/SUE aggregation at n = 1M — is met by the closed_form path with orders
// of magnitude to spare; items_per_second makes the comparison direct.

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

void BM_CollectStreaming(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const std::vector<int> values = MakeValues(n);
  Rng rng(1);
  for (auto _ : state) {
    auto agg = oracle->MakeAggregator();
    oracle->BatchRandomize(values, rng,
                           [&](const fo::Report& r) { agg->Accumulate(r); });
    auto est = agg->Estimate();
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_CollectFused(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const std::vector<int> values = MakeValues(n);
  Rng rng(1);
  for (auto _ : state) {
    auto agg = oracle->MakeAggregator();
    agg->AccumulateValues(values, rng);
    auto est = agg->Estimate();
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

// Aggregation only, reports pre-materialized: the historical scalar idiom
// (AccumulateSupport per report) against the aggregator's Accumulate. For
// the UE family and OLH, Accumulate packs each report into a wire-image
// block and decodes kBlockRows at a time through the same
// AccumulateWireBlock kernels the serve path uses; client randomization is
// outside the timed region, so this isolates what staging buys on the
// non-wire path: the SWAR column sums and the batched OLH hash sweep are
// each about an order of magnitude over the per-report scalar walk. SS
// keeps the scalar walk in Accumulate (packing a wire image cost it 2.5x),
// so its pair runs the same code, one virtual call apart, and should read
// equal; BM_AggregateBlock/ss stays as the guard against a return to
// staging.
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

void BM_AggregateBlock(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const std::vector<int> values = MakeValues(n);
  Rng rng(1);
  std::vector<fo::Report> reports;
  reports.reserve(n);
  for (int v : values) reports.push_back(oracle->Randomize(v, rng));
  for (auto _ : state) {
    auto agg = oracle->MakeAggregator();
    for (const fo::Report& r : reports) agg->Accumulate(r);
    auto est = agg->Estimate();
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

}  // namespace

// The issue's acceptance pair: OUE and SUE at n = 1M, k = 100.
BENCHMARK_CAPTURE(BM_CollectScalar, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectStreaming, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectFused, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectClosedForm, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectScalar, sue, fo::Protocol::kSue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectStreaming, sue, fo::Protocol::kSue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectFused, sue, fo::Protocol::kSue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectClosedForm, sue, fo::Protocol::kSue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

// The other three protocols at a smaller n, for the full picture.
BENCHMARK_CAPTURE(BM_CollectScalar, grr, fo::Protocol::kGrr)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_CollectFused, grr, fo::Protocol::kGrr)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_CollectClosedForm, grr, fo::Protocol::kGrr)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_CollectScalar, olh, fo::Protocol::kOlh)->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CollectFused, olh, fo::Protocol::kOlh)->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CollectClosedForm, olh, fo::Protocol::kOlh)->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CollectScalar, ss, fo::Protocol::kSs)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_CollectFused, ss, fo::Protocol::kSs)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_CollectClosedForm, ss, fo::Protocol::kSs)->Arg(1 << 18);

// Block vs scalar on the batch (non-wire) path: same pre-materialized
// reports, the aggregator's Accumulate against per-report AccumulateSupport.
BENCHMARK_CAPTURE(BM_AggregateScalar, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AggregateBlock, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AggregateScalar, sue, fo::Protocol::kSue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AggregateBlock, sue, fo::Protocol::kSue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AggregateScalar, ss, fo::Protocol::kSs)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_AggregateBlock, ss, fo::Protocol::kSs)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_AggregateScalar, olh, fo::Protocol::kOlh)->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_AggregateBlock, olh, fo::Protocol::kOlh)->Arg(1 << 16);

BENCHMARK_MAIN();
