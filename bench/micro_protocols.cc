// Microbenchmarks (google-benchmark) for the library's hot paths: client
// randomization, server support accumulation and the single-report attack
// for each frequency oracle, plus the RS+FD / RS+RFD clients and the GBDT
// trainer. These are throughput baselines, not paper figures.

#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "core/sampling.h"
#include "fo/factory.h"
#include "ml/gbdt.h"
#include "multidim/rsfd.h"
#include "multidim/rsrfd.h"

namespace {

using namespace ldpr;

void BM_Randomize(benchmark::State& state, fo::Protocol protocol) {
  const int k = static_cast<int>(state.range(0));
  auto oracle = fo::MakeOracle(protocol, k, 1.0);
  Rng rng(1);
  int v = 0;
  for (auto _ : state) {
    fo::Report r = oracle->Randomize(v, rng);
    benchmark::DoNotOptimize(r);
    v = (v + 1) % k;
  }
}

void BM_RandomizeAndSupport(benchmark::State& state, fo::Protocol protocol) {
  const int k = static_cast<int>(state.range(0));
  auto oracle = fo::MakeOracle(protocol, k, 1.0);
  Rng rng(2);
  std::vector<long long> counts(k, 0);
  int v = 0;
  for (auto _ : state) {
    fo::Report r = oracle->Randomize(v, rng);
    oracle->AccumulateSupport(r, &counts);
    v = (v + 1) % k;
  }
  benchmark::DoNotOptimize(counts);
}

void BM_Attack(benchmark::State& state, fo::Protocol protocol) {
  const int k = static_cast<int>(state.range(0));
  auto oracle = fo::MakeOracle(protocol, k, 1.0);
  Rng rng(3);
  std::vector<fo::Report> reports;
  for (int i = 0; i < 256; ++i) {
    reports.push_back(oracle->Randomize(i % k, rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle->AttackPredict(reports[i++ % reports.size()], rng));
  }
}

void BM_RsFdClient(benchmark::State& state) {
  const std::vector<int> k{74, 7, 16, 7, 14, 6, 5, 2, 41, 2};
  multidim::RsFd protocol(multidim::RsFdVariant::kGrr, k, 1.0);
  Rng rng(4);
  std::vector<int> record(k.size(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.RandomizeUser(record, rng));
  }
}

void BM_RsRfdClient(benchmark::State& state) {
  const std::vector<int> k{74, 7, 16, 7, 14, 6, 5, 2, 41, 2};
  std::vector<std::vector<double>> priors;
  for (int kj : k) priors.push_back(ZipfDistribution(kj, 1.2));
  multidim::RsRfd protocol(multidim::RsRfdVariant::kGrr, k, 1.0, priors);
  Rng rng(5);
  std::vector<int> record(k.size(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.RandomizeUser(record, rng));
  }
}

void BM_GbdtTrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  std::vector<std::vector<int>> rows(n, std::vector<int>(10));
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    for (int f = 0; f < 10; ++f) {
      rows[i][f] = static_cast<int>(rng.UniformInt(8));
    }
    labels[i] = rows[i][0] % 4;
  }
  ml::GbdtConfig config;
  config.num_rounds = 5;
  config.max_depth = 4;
  for (auto _ : state) {
    ml::Gbdt model;
    model.Train(rows, labels, 4, config, rng);
    benchmark::DoNotOptimize(model);
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_Randomize, grr, fo::Protocol::kGrr)->Arg(16)->Arg(256);
BENCHMARK_CAPTURE(BM_Randomize, olh, fo::Protocol::kOlh)->Arg(16)->Arg(256);
BENCHMARK_CAPTURE(BM_Randomize, ss, fo::Protocol::kSs)->Arg(16)->Arg(256);
BENCHMARK_CAPTURE(BM_Randomize, sue, fo::Protocol::kSue)->Arg(16)->Arg(256);
BENCHMARK_CAPTURE(BM_Randomize, oue, fo::Protocol::kOue)->Arg(16)->Arg(256);
BENCHMARK_CAPTURE(BM_RandomizeAndSupport, grr, fo::Protocol::kGrr)->Arg(64);
BENCHMARK_CAPTURE(BM_RandomizeAndSupport, olh, fo::Protocol::kOlh)->Arg(64);
BENCHMARK_CAPTURE(BM_RandomizeAndSupport, oue, fo::Protocol::kOue)->Arg(64);
BENCHMARK_CAPTURE(BM_Attack, grr, fo::Protocol::kGrr)->Arg(64);
BENCHMARK_CAPTURE(BM_Attack, olh, fo::Protocol::kOlh)->Arg(64);
BENCHMARK_CAPTURE(BM_Attack, sue, fo::Protocol::kSue)->Arg(64);
BENCHMARK(BM_RsFdClient);
BENCHMARK(BM_RsRfdClient);
BENCHMARK(BM_GbdtTrain)->Arg(2000);

BENCHMARK_MAIN();
