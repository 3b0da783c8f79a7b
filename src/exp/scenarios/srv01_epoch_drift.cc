// srv01: estimate quality of the streaming collection service across
// epochs while the underlying population drifts.
//
// Each epoch draws n users from a Zipf population whose probability mass
// rotates a little further through the domain (a simple model of a
// distribution shifting between collection rounds). The legacy-exact
// fidelity ships every user's report over the real wire path — randomize,
// serialize (fo/wire), ingest through a lock-striped serve::Collector,
// seal — so the numbers exercise exactly the deployment surface; the fast
// fidelity feeds the same epochs through the collector's closed-form
// histogram lane (O(k) draws per epoch). Per epoch the table reports the
// sealed snapshot's MSE against that epoch's true marginal for GRR, OUE
// and SUE, plus OUE after Norm-Sub consistency post-processing.

#include <vector>

#include "core/metrics.h"
#include "core/sampling.h"
#include "exp/experiment.h"
#include "exp/grid_runner.h"
#include "fo/factory.h"
#include "serve/collector.h"
#include "serve/loadgen.h"
#include "serve/longitudinal.h"

namespace {

using namespace ldpr;
using exp::Cell;

constexpr int kDomain = 64;
constexpr double kEpsilon = 1.0;

/// The epoch-e population: a Zipf(1.3) marginal rotated by e * k/7 values.
std::vector<double> DriftedTruth(int epoch) {
  const std::vector<double> base = ZipfDistribution(kDomain, 1.3);
  std::vector<double> truth(kDomain);
  const int shift = epoch * (kDomain / 7);
  for (int v = 0; v < kDomain; ++v) {
    truth[v] = base[(v + shift) % kDomain];
  }
  return truth;
}

double SealedMse(const serve::LongitudinalCollector& manager,
                 const std::vector<double>& truth, bool consistent) {
  const serve::EstimateSnapshot& snapshot = manager.snapshots().back();
  return Mse(truth, consistent ? snapshot.consistent : snapshot.frequencies);
}

void Run(exp::Context& ctx) {
  const bool fast = ctx.profile().fast();
  const long long users = ctx.profile().Mc("LDPR_SERVE_USERS", 200000, 2000);
  const int epochs = ctx.profile().Count(8, 3);
  const int runs = ctx.profile().runs;

  ctx.out().Config("users_per_epoch", exp::StrPrintf("%lld", users));
  ctx.out().Config("epochs", exp::StrPrintf("%d", epochs));
  ctx.EmitRunConfig("srv01_epoch_drift", static_cast<int>(users), 1);

  exp::TableSpec spec;
  spec.header =
      exp::StrPrintf("%-8s %12s %12s %12s %12s", "epoch", "GRR", "OUE", "SUE",
                     "OUE(NormSub)");
  spec.x_name = "epoch";
  spec.columns = {"GRR", "OUE", "SUE", "OUE(NormSub)"};
  ctx.out().BeginTable(spec);

  const fo::Protocol protocols[] = {fo::Protocol::kGrr, fo::Protocol::kOue,
                                    fo::Protocol::kSue};
  const auto means = exp::RunGrid(
      epochs, runs, 4, [&](int epoch, int trial) {
        std::uint64_t seed =
            4200 + static_cast<std::uint64_t>(epoch) * runs + trial + 1;
        if (fast) seed ^= exp::kFastProfileSeedSalt;
        Rng rng(seed * 9176);
        const std::vector<double> truth = DriftedTruth(epoch);

        // One shared population per cell: every protocol serves the same
        // users, like one deployment running three oracles side by side.
        std::vector<long long> histogram;
        std::vector<int> values;
        if (fast) {
          histogram = SampleMultinomial(users, truth, rng);
        } else {
          CategoricalSampler sampler(truth);
          values.resize(users);
          for (int& v : values) v = sampler.Sample(rng);
        }

        std::vector<double> row(4, 0.0);
        for (int p = 0; p < 3; ++p) {
          auto oracle = fo::MakeOracle(protocols[p], kDomain, kEpsilon);
          serve::LongitudinalOptions options;
          options.collector.lanes = 4;
          serve::LongitudinalCollector manager(*oracle, options);
          manager.OpenEpoch();
          if (fast) {
            manager.collector().IngestHistogram(0, histogram, rng);
          } else {
            Rng root = rng.Split();
            const serve::EncodedStream stream =
                serve::EncodeScalarLoad(*oracle, values, root);
            serve::IngestStream(manager.collector(), stream);
          }
          manager.Seal();
          row[p] = SealedMse(manager, truth, /*consistent=*/false);
          if (protocols[p] == fo::Protocol::kOue) {
            row[3] = SealedMse(manager, truth, /*consistent=*/true);
          }
        }
        return row;
      });

  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::vector<Cell> cells{Cell::Integer("%-8d", epoch)};
    for (double v : means[epoch]) cells.push_back(Cell::Number(" %12.4e", v));
    ctx.out().Row(cells);
  }

  // Second table: the same drifting epochs served through a sliding-window
  // LongitudinalCollector (OUE, W = 3). Window estimates come from the
  // collector's O(k) count-delta path — never a recompute over reports —
  // and are scored against the window's mixed truth (mean of the member
  // epochs' marginals); drift_L1 is the epoch-over-epoch estimate movement
  // from serve::DiffSnapshots.
  const int window_len = 3;
  if (epochs >= window_len) {
    exp::TableSpec wspec;
    wspec.section = exp::StrPrintf("sliding window (OUE, W=%d)", window_len);
    wspec.header = exp::StrPrintf("%-8s %12s %12s %12s", "epoch",
                                  "windowMSE", "epochMSE", "drift_L1");
    wspec.x_name = "epoch";
    wspec.columns = {"windowMSE", "epochMSE", "drift_L1"};
    ctx.out().BeginTable(wspec);

    std::vector<std::vector<double>> sums(epochs,
                                          std::vector<double>(3, 0.0));
    for (int trial = 0; trial < runs; ++trial) {
      std::uint64_t seed = 5300 + static_cast<std::uint64_t>(trial) + 1;
      if (fast) seed ^= exp::kFastProfileSeedSalt;
      Rng rng(seed * 9176);
      auto oracle = fo::MakeOracle(fo::Protocol::kOue, kDomain, kEpsilon);
      serve::LongitudinalOptions options;
      options.schedule = serve::EpochSchedule::Sliding(window_len);
      options.collector.lanes = 4;
      serve::LongitudinalCollector collector(*oracle, options);
      for (int epoch = 0; epoch < epochs; ++epoch) {
        const std::vector<double> truth = DriftedTruth(epoch);
        collector.OpenEpoch();
        if (fast) {
          const std::vector<long long> histogram =
              SampleMultinomial(users, truth, rng);
          collector.collector().IngestHistogram(0, histogram, rng);
        } else {
          CategoricalSampler sampler(truth);
          std::vector<int> values(users);
          for (int& v : values) v = sampler.Sample(rng);
          Rng root = rng.Split();
          const serve::EncodedStream stream =
              serve::EncodeScalarLoad(*oracle, values, root);
          serve::IngestStream(collector.collector(), stream);
        }
        const serve::EstimateSnapshot& sealed = collector.Seal();
        if (epoch >= 1) {
          const auto& history = collector.snapshots();
          sums[epoch][2] +=
              serve::DiffSnapshots(history[history.size() - 2], sealed)
                  .l1_drift;
        }
        if (epoch < window_len - 1) continue;
        std::vector<double> window_truth(kDomain, 0.0);
        for (int e = epoch - window_len + 1; e <= epoch; ++e) {
          const std::vector<double> member = DriftedTruth(e);
          for (int v = 0; v < kDomain; ++v) {
            window_truth[v] += member[v] / window_len;
          }
        }
        sums[epoch][0] +=
            Mse(window_truth, collector.windows().back().frequencies);
        sums[epoch][1] += Mse(truth, sealed.frequencies);
      }
    }
    for (int epoch = window_len - 1; epoch < epochs; ++epoch) {
      std::vector<Cell> cells{Cell::Integer("%-8d", epoch)};
      for (double v : sums[epoch]) {
        cells.push_back(Cell::Number(" %12.4e", v / runs));
      }
      ctx.out().Row(cells);
    }
  }
}

const exp::Registrar kRegistrar{{
    /*name=*/"srv01",
    /*title=*/"srv01_epoch_drift",
    /*description=*/
    "Collection-service MSE across epochs under population drift (wire "
    "ingest path)",
    /*group=*/"serving",
    /*datasets=*/{},
    /*run=*/Run,
}};

}  // namespace
