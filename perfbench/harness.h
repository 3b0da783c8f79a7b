#ifndef LDPR_PERFBENCH_HARNESS_H_
#define LDPR_PERFBENCH_HARNESS_H_

// Closed-loop harness of the serving benchmark.
//
// One run pushes a workload's pre-framed records through the real serving
// path — two blocking sender connections -> Unix-domain socket ->
// serve::IngestServer -> serve::WireSession -> admission -> sink -> seal —
// one epoch at a time: every epoch sends its records, waits until the
// server has framed all of them, and seals. The next epoch starts only
// after the seal returns, so a slower server receives less load.
//
// Everything here measures from outside the library: timestamps and CPU
// clocks around the benchmark's own calls, and a timing IngestSink wrapper
// in traced runs. Nothing inside src/ is instrumented for the benchmark.

#include <array>
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/ingest.h"

namespace perfbench {

/// Metric name -> value.
using Metrics = std::map<std::string, double>;

// ---- Clocks ---------------------------------------------------------------

long long NowNs();
/// CPU time of the calling thread.
long long SelfThreadCpuNs();
/// CPU time of another live thread of this process.
long long ThreadCpuNs(std::thread& thread);
/// CPU time of the whole process (getrusage(RUSAGE_SELF)).
long long ProcessCpuNs();
/// Heap bytes in use across every malloc arena (mallinfo2).
long long HeapInUseBytes();

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

// ---- Traffic ---------------------------------------------------------------

/// Sender connections (and sender threads) of every workload.
inline constexpr int kSenders = 2;
/// Bytes per write() call of a sender; the server reads the same chunk.
inline constexpr std::size_t kWriteChunk = 64 << 10;

/// One epoch's traffic: framed wire records (serve/wire_session.h format)
/// for each sender connection.
struct EpochTraffic {
  std::array<std::vector<std::uint8_t>, kSenders> slices;
  long long records = 0;     ///< framed records over all slices
  long long duplicates = 0;  ///< records sent twice on purpose
};

// ---- Sealed output ---------------------------------------------------------

/// Exact rendering of sealed output as (name, value) pairs; doubles are
/// written in hex-float so equal strings mean bit-identical values.
using Fields = std::vector<std::pair<std::string, std::string>>;
void AddField(Fields& out, const std::string& name, long long value);
void AddField(Fields& out, const std::string& name, double value);
void AddField(Fields& out, const std::string& name,
              const std::vector<long long>& values);
void AddField(Fields& out, const std::string& name,
              const std::vector<double>& values);

/// Per-epoch rejects and acceptance as the sink sealed them.
struct SealStats {
  long long accepted = 0;
  long long duplicates = 0;
  /// Every other reject reason (malformed, rate-limited, shed,
  /// closed-epoch): none is expected on any workload.
  long long other_rejects = 0;
};

/// The serving sink of one workload, driven epoch by epoch. The same type
/// serves the socket run and the in-process reference it is checked
/// against.
class Service {
 public:
  virtual ~Service() = default;
  virtual ldpr::serve::IngestSink& sink() = 0;
  virtual void Open() = 0;
  virtual SealStats Seal() = 0;
  /// Exact digest of sealed epoch `epoch` (0-based, in seal order). Names
  /// starting with "sequence." depend on the epochs sealed before it.
  virtual Fields DigestEpoch(long long epoch) const = 0;
  /// Digest of cross-epoch output (completed windows); empty by default.
  virtual Fields DigestWindows() const { return {}; }
  /// Consistency checks the sealed output must satisfy on its own (window
  /// sums, cumulative ledgers); returns the first violation or "".
  virtual std::string SelfCheck() const { return ""; }
  /// Exact counts of the sealed output for the per-layer report.
  virtual void ReportCounts(Metrics& out) const { (void)out; }
};

// ---- Tracing ---------------------------------------------------------------

/// One traced interval. `busy_ns` is the work inside the interval when it
/// differs from its wall duration (CPU time, or summed call time of a
/// batch); -1 means "the whole duration".
struct Span {
  const char* name = "";
  int id = -1;
  int parent = -1;
  long long epoch = -1;
  long long batch = -1;
  long long start_ns = 0;
  long long end_ns = 0;
  long long count = 0;
  long long busy_ns = -1;

  long long Busy() const { return busy_ns >= 0 ? busy_ns : end_ns - start_ns; }
};

/// In-memory span store; written out once, when the run ends. Disabled
/// tracers drop everything.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Thread-safe; returns the span id (-1 when disabled).
  int Record(Span span);
  /// Sets the interval of a span recorded before its end was known.
  void Finish(int id, long long start_ns, long long end_ns,
              long long busy_ns = -1);
  /// A span's busy time minus the busy time of its direct children.
  long long SelfNs(int id) const;
  /// JSON lines: one "provenance" object, then one object per span.
  void Write(const std::string& path, const std::string& provenance) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Cost of one NowNs() call, measured once per process.
long long ClockReadNs();

/// IngestSink wrapper the server calls in traced runs: forwards every
/// request and, while timing is on, times every kSampleEvery-th call, so
/// clock reads add a fraction of a call's cost instead of swamping it. The
/// time inside the real sink is estimated from the sampled calls, less the
/// clock read each sampled interval contains. One span per kBatch calls.
class TimingSink final : public ldpr::serve::IngestSink {
 public:
  static constexpr long long kSampleEvery = 8;
  static constexpr long long kBatch = 4096;

  TimingSink(ldpr::serve::IngestSink& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), clock_ns_(ClockReadNs()) {}

  ldpr::serve::IngestResult Ingest(
      const ldpr::serve::IngestRequest& request) override;

  /// Starts an epoch; `timing` selects whether its calls are timed.
  void BeginEpoch(long long epoch, int parent_span, bool timing);
  /// Stops timing; returns {estimated ns inside the sink, calls} of the
  /// epoch.
  std::pair<long long, long long> EndEpoch();

 private:
  void RecordBatch();

  ldpr::serve::IngestSink& inner_;
  Tracer& tracer_;
  const long long clock_ns_;
  // Every field below is written by one thread at a time: the server loop
  // thread while an epoch ingests, the main thread between epochs (after
  // the drain wait). Relaxed single-writer atomics keep the hand-over
  // race-free without adding a locked instruction per call.
  std::atomic<bool> timing_{false};
  std::atomic<long long> epoch_{-1};
  std::atomic<int> parent_{-1};
  std::atomic<long long> calls_{0};
  std::atomic<long long> sampled_{0};
  std::atomic<long long> sampled_ns_{0};
  std::atomic<long long> batch_index_{0};
  std::atomic<long long> batch_start_{0};
  std::atomic<long long> batch_end_{0};
  std::atomic<long long> batch_sampled_ns_{0};
  std::atomic<long long> batch_calls_{0};
};

// ---- Load generator threads ------------------------------------------------

/// What one sender did in one epoch.
struct SendStats {
  long long start_ns = 0;
  long long end_ns = 0;
  long long cpu_ns = 0;
  long long bytes = 0;
  bool failed = false;
  /// SIOCOUTQ samples after each write (traced runs only).
  std::vector<long long> backlog;
};

/// One persistent blocking connection to the ingest socket, written by its
/// own thread. Writes use send(MSG_NOSIGNAL): a peer hang-up becomes a
/// counted failure instead of a process-wide SIGPIPE.
class Sender {
 public:
  Sender(const std::string& uds_path, bool sample_backlog);
  ~Sender();
  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  /// Starts writing `bytes` (which must stay alive until Wait returns).
  /// The sender arrives at `last_chunk` exactly once, waiting there before
  /// its final write, so every connection's last chunk goes out together
  /// and an epoch always ends with the same backlog shape.
  void Post(std::span<const std::uint8_t> bytes,
            std::barrier<>& last_chunk);
  SendStats Wait();
  long long CpuNs() { return ThreadCpuNs(thread_); }

 private:
  void Loop();

  int fd_ = -1;
  bool sample_backlog_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::span<const std::uint8_t> job_;
  std::barrier<>* last_chunk_ = nullptr;
  bool has_job_ = false;
  bool done_ = false;
  bool stop_ = false;
  SendStats stats_;
  std::thread thread_;
};

/// GETs /metrics over the admin socket every interval, reading each
/// response to EOF.
class Scraper {
 public:
  Scraper(std::string admin_path, Tracer& tracer,
          const std::atomic<long long>& epoch);
  ~Scraper();
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  long long CpuNs() { return ThreadCpuNs(thread_); }
  /// Stops and joins the thread; then the results below are final.
  void Stop();
  long long scrapes() const { return scrapes_; }
  long long failures() const { return failures_; }
  const std::vector<double>& round_trip_ms() const { return round_trip_ms_; }

 private:
  void Loop();

  std::string path_;
  Tracer& tracer_;
  const std::atomic<long long>& epoch_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  long long scrapes_ = 0;
  long long failures_ = 0;
  std::vector<double> round_trip_ms_;
  std::thread thread_;
};

// ---- Workloads and the run -------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Epoch e sends traffic()[e % traffic().size()].
  virtual const std::vector<EpochTraffic>& traffic() const = 0;
  /// A fresh sink; `registry` (nullable) receives its telemetry.
  virtual std::unique_ptr<Service> MakeService(
      ldpr::obs::MetricsRegistry* registry) const = 0;
  /// Per-user admission the server applies (off by default).
  virtual ldpr::serve::AdmissionOptions admission() const { return {}; }
  /// Whether a scraper reads /metrics during the run.
  virtual bool scraped() const { return false; }
  /// Whether every epoch replays one identical stream (so one reference
  /// epoch covers them all).
  virtual bool identical_epochs() const { return false; }
  /// Traced runs: times the recorded inputs through each layer's public
  /// functions and writes the per-layer metrics. `seal_ms` is the socket
  /// run's median seal time.
  virtual void ReplayLayers(double seal_ms, Tracer& tracer,
                            Metrics& out) const = 0;

  /// Client-side costs measured while the inputs were built.
  double encode_ns_per_report = 0.0;
  double frame_ns_per_record = 0.0;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Socket path prefix (relative to the working directory), unique per run.
  std::string socket_prefix;
  /// Complete set-ups per run; each runs one cold epoch and then its share
  /// of the steady epochs.
  int setups = 10;
  /// Self-test hook: drops one record from the reference's input, so the
  /// output check must fail.
  bool corrupt_reference = false;
  /// Traced runs write their spans here (JSON lines), headed by
  /// `provenance` (a JSON object).
  std::string trace_path;
  std::string provenance;
};

struct RunReport {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  Metrics end_to_end;
  Metrics layers;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;  ///< human-readable lines for stdout
};

using WorkloadFactory = std::unique_ptr<Workload> (*)(std::uint64_t seed,
                                                      bool smoke);
/// The factory of a named workload ("longit-grr", "anon-oue",
/// "multidim-rsrfd"); nullptr for an unknown name.
WorkloadFactory FindWorkload(const std::string& name);

/// The SIMD tier fo's runtime dispatch selects on this CPU — the OLH
/// kernel dispatch, honouring its LDPR_OLH_KERNEL override: 0 scalar,
/// 1 AVX2, 2 AVX-512. The GRR and UE block kernels are portable code with
/// no dispatch.
int FoIsaTier();

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Printed by untraced runs, in BENCHMARK.json's "end_to_end" order.
extern const std::vector<MetricDef> kEndToEndMetrics;
/// Printed by traced runs, in BENCHMARK.json's "per_layer" order.
extern const std::vector<MetricDef> kLayerMetrics;

void Run(const RunOptions& options, WorkloadFactory factory, bool smoke,
         RunReport& report);

}  // namespace perfbench

#endif  // LDPR_PERFBENCH_HARNESS_H_
