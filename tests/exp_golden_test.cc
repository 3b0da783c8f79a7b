// Golden-output pinning (ctest label exp_smoke): the GridRunner-based
// experiment subsystem must reproduce the pre-refactor bench drivers'
// stdout byte for byte at a pinned seed/environment. The files under
// tests/golden/ were captured from the standalone driver binaries at the
// commit before the registry port, with:
//
//   LDPR_RUNS=1 LDPR_SCALE=0.02 LDPR_REIDENT_TARGETS=100
//   LDPR_GBDT_ROUNDS=2 LDPR_GBDT_DEPTH=2 LDPR_FIG01_TRIALS=500
//
// Results are thread-count independent (per-cell RNG streams), so the
// comparison holds under any LDPR_THREADS.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exp/emitter.h"
#include "exp/experiment.h"

#ifndef LDPR_GOLDEN_DIR
#error "compile with -DLDPR_GOLDEN_DIR=\"<path to tests/golden>\""
#endif

namespace ldpr::exp {
namespace {

std::string ReadGolden(const std::string& name) {
  const std::string path = std::string(LDPR_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ExpGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ASSERT_EQ(setenv("LDPR_RUNS", "1", 1), 0);
    ASSERT_EQ(setenv("LDPR_SCALE", "0.02", 1), 0);
    ASSERT_EQ(setenv("LDPR_REIDENT_TARGETS", "100", 1), 0);
    ASSERT_EQ(setenv("LDPR_GBDT_ROUNDS", "2", 1), 0);
    ASSERT_EQ(setenv("LDPR_GBDT_DEPTH", "2", 1), 0);
    ASSERT_EQ(setenv("LDPR_FIG01_TRIALS", "500", 1), 0);
  }

  static void RunAndCompare(const std::string& name,
                            const std::string& golden_file) {
    const ExperimentSpec* spec = Registry::Instance().Find(name);
    ASSERT_NE(spec, nullptr) << name;
    std::string csv;
    CsvEmitter emitter(&csv);
    RunExperiment(*spec, emitter, RunProfile::FromEnv());
    EXPECT_EQ(csv, ReadGolden(golden_file))
        << name << " CSV output drifted from the pre-refactor driver";
  }

  /// Fast-profile pins: same environment, Fidelity::kFast. These goldens
  /// were captured from this repo's own fast path (there is no historical
  /// driver for it); they pin the closed-form RNG streams — re-pin with
  /// tools/repin_fast_goldens.sh whenever those streams change.
  static void RunAndCompareFast(const std::string& name,
                                const std::string& golden_file) {
    const ExperimentSpec* spec = Registry::Instance().Find(name);
    ASSERT_NE(spec, nullptr) << name;
    RunProfile profile = RunProfile::FromEnv();
    profile.fidelity = RunProfile::Fidelity::kFast;
    std::string csv;
    CsvEmitter emitter(&csv);
    RunExperiment(*spec, emitter, profile);
    EXPECT_EQ(csv, ReadGolden(golden_file))
        << name << " fast-profile CSV output drifted from its pin";
  }

  /// Paper-true-n fast pins: the scale override is cleared so the fast
  /// profile's own default applies — ACSEmployment at the source paper's
  /// ~3.2M users for fig05, Adult at its true 45'222 for fig16. Closed-form
  /// cells keep this cheap (the only O(n) work is synthesizing the
  /// population and building its histograms).
  static void RunAndComparePaperN(const std::string& name,
                                  const std::string& golden_file) {
    const ExperimentSpec* spec = Registry::Instance().Find(name);
    ASSERT_NE(spec, nullptr) << name;
    RunProfile profile = RunProfile::FromEnv();
    profile.fidelity = RunProfile::Fidelity::kFast;
    profile.has_scale_override = false;
    std::string csv;
    CsvEmitter emitter(&csv);
    RunExperiment(*spec, emitter, profile);
    EXPECT_EQ(csv, ReadGolden(golden_file))
        << name << " paper-n fast-profile CSV output drifted from its pin";
  }
};

// Sanitizer builds skip the paper-n pins: synthesizing the 3.2M-user
// population costs minutes under ASan and the streams are already covered
// by the scale-0.02 fast pins above.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LDPR_SKIP_PAPER_N 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LDPR_SKIP_PAPER_N 1
#endif
#endif

TEST_F(ExpGoldenTest, Fig01BitIdentical) { RunAndCompare("fig01", "fig01.txt"); }

TEST_F(ExpGoldenTest, Fig02BitIdentical) { RunAndCompare("fig02", "fig02.txt"); }

TEST_F(ExpGoldenTest, Abl05BitIdentical) { RunAndCompare("abl05", "abl05.txt"); }

TEST_F(ExpGoldenTest, Abl10BitIdentical) { RunAndCompare("abl10", "abl10.txt"); }

// abl09.txt was captured from the registry scenario itself, under the
// environment above, before its estimates moved onto wire frames through
// serve::Collector (same RNG stream, same integer counts). It pins that
// port and is never re-pinned.
TEST_F(ExpGoldenTest, Abl09BitIdentical) { RunAndCompare("abl09", "abl09.txt"); }

TEST_F(ExpGoldenTest, Fig05FastPinned) {
  RunAndCompareFast("fig05", "fig05_fast.txt");
}

TEST_F(ExpGoldenTest, Fig16FastPinned) {
  RunAndCompareFast("fig16", "fig16_fast.txt");
}

TEST_F(ExpGoldenTest, Abl06FastPinned) {
  RunAndCompareFast("abl06", "abl06_fast.txt");
}

TEST_F(ExpGoldenTest, Abl07FastPinned) {
  RunAndCompareFast("abl07", "abl07_fast.txt");
}

TEST_F(ExpGoldenTest, Fig05FastPaperNPinned) {
#ifdef LDPR_SKIP_PAPER_N
  GTEST_SKIP() << "3.2M-user synthesis is too slow under sanitizers";
#else
  RunAndComparePaperN("fig05", "fig05_fast_papern.txt");
#endif
}

TEST_F(ExpGoldenTest, Fig16FastPaperNPinned) {
#ifdef LDPR_SKIP_PAPER_N
  GTEST_SKIP() << "paper-n pins are skipped under sanitizers";
#else
  RunAndComparePaperN("fig16", "fig16_fast_papern.txt");
#endif
}

}  // namespace
}  // namespace ldpr::exp
