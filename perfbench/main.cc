// ldpr_perfbench: end-to-end, layer-attributed benchmark of the LDP
// collection service. Normally started through perfbench/run.py, which
// builds it first:
//
//   ldpr_perfbench --workload longit-grr|anon-oue|multidim-rsrfd
//                  --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--socket-dir DIR] [--commit ID]
//                  [--smoke] [--corrupt-reference]
//
// Prints a provenance line, human-readable notes, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1. Exits 1 when
// the output check fails.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "harness.h"

#ifndef LDPR_PERFBENCH_BUILD_TYPE
#define LDPR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// CPUs this process may run on, as nproc reports them.
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
}

const char* IsaTierName(int tier) {
  return tier == 2 ? "avx512" : tier == 1 ? "avx2" : "scalar";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "ldpr_perfbench: %s\nusage: ldpr_perfbench --workload "
               "longit-grr|anon-oue|multidim-rsrfd --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--socket-dir DIR] "
               "[--commit ID] [--smoke] [--corrupt-reference]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string socket_dir = ".";
  std::string commit = "unknown";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--trace-out") {
      options.trace_path = value();
    } else if (arg == "--socket-dir") {
      socket_dir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const perfbench::WorkloadFactory factory =
      perfbench::FindWorkload(options.workload);
  if (factory == nullptr) return Usage("unknown --workload");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  const std::string build_type = LDPR_PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool optimized = false;
#else
  const bool optimized = build_type == "Release";
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "ldpr_perfbench: refusing to report numbers from a %s build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
                 build_type.c_str());
    return 3;
  }

  const int tier = perfbench::FoIsaTier();
  options.provenance =
      "{\"workload\": " + JsonString(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + std::to_string(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"smoke\": " + (smoke ? "true" : "false") +
      ", \"nproc\": " + std::to_string(Nproc()) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"fo_isa_tier\": " + JsonString(IsaTierName(tier)) +
      ", \"build_type\": " + JsonString(build_type) +
      ", \"commit\": " + JsonString(commit) + "}";
  std::printf("provenance: %s\n", options.provenance.c_str());
  std::fflush(stdout);

  // A longit-grr set-up builds and tears down million-user tables (about
  // 2.5 s), so it pools three set-ups; the others set up in well under a
  // second and pool ten.
  options.setups = options.workload == "longit-grr" ? 3 : 10;
  options.socket_prefix =
      socket_dir + "/" + std::to_string(static_cast<long long>(::getpid()));
  perfbench::RunReport report;
  try {
    perfbench::Run(options, factory, smoke, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldpr_perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& failure : report.check_failures) {
    std::fprintf(stderr, "OUTPUT CHECK FAILED: %s\n", failure.c_str());
  }
  const std::vector<perfbench::MetricDef>& defs =
      options.trace ? perfbench::kLayerMetrics : perfbench::kEndToEndMetrics;
  const perfbench::Metrics& values =
      options.trace ? report.layers : report.end_to_end;
  std::string metrics;
  for (const perfbench::MetricDef& def : defs) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", values.at(def.name));
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(def.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(def.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false", report.attempted, report.failed,
      metrics.c_str());
  return report.correct ? 0 : 1;
}
