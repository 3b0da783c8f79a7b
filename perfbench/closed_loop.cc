// The run: repeated set-ups, each with one cold epoch and a share of the
// steady epochs; the output check against an in-process reference; and
// (traced runs) the per-layer replays.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <unordered_map>

#include "harness.h"
#include "serve/server.h"
#include "serve/wire_session.h"

namespace perfbench {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"ingest_rate", "reports/s"},
    {"cold_epoch_rate", "reports/s"},
    {"cycle_rate", "reports/s"},
    {"freshness_ms", "ms"},
    {"seal_ms", "ms"},
    {"server_cpu_ns_per_report", "ns"},
    {"server_state_mb", "MB"},
    {"success_ratio", "ratio"},
    {"setup_s", "s"},
};

const std::vector<MetricDef> kLayerMetrics = {
    {"loadgen.encode_ns_per_report", "ns"},
    {"loadgen.frame_ns_per_record", "ns"},
    {"loadgen.send_blocked_ratio", "ratio"},
    {"loadgen.backlog_bytes_p50", "bytes"},
    {"loadgen.backlog_bytes_max", "bytes"},
    {"server.busy_ratio", "ratio"},
    {"server.self_ns_per_record", "ns"},
    {"server.wire_bytes_per_record", "bytes"},
    {"server.protocol_errors", "count"},
    {"server.shed_connections", "count"},
    {"wire_session.self_ns_per_record", "ns"},
    {"admission.ns_per_admit", "ns"},
    {"admission.users", "count"},
    {"admission.rate_limited", "count"},
    {"longitudinal.classify_ns_fresh", "ns"},
    {"longitudinal.classify_ns_memoized", "ns"},
    {"longitudinal.ingest_self_ns_per_report", "ns"},
    {"longitudinal.scan_ms", "ms"},
    {"longitudinal.seal_ms", "ms"},
    {"longitudinal.state_bytes_per_user", "bytes/user"},
    {"longitudinal.fresh", "count"},
    {"longitudinal.memoized", "count"},
    {"longitudinal.duplicates", "count"},
    {"longitudinal.memo_hit_ratio", "ratio"},
    {"collector.ingest_ns_per_report", "ns"},
    {"collector.sink_ns_per_record", "ns"},
    {"collector.drain_us", "us"},
    {"collector.malformed", "count"},
    {"fo.validate_ns_per_report", "ns"},
    {"fo.block_ns_per_report", "ns"},
    {"fo.isa_tier", "tier"},
    {"multidim_collector.ingest_ns_per_tuple", "ns"},
    {"multidim_collector.seal_us", "us"},
    {"obs.scrape_ms_p50", "ms"},
    {"obs.render_us", "us"},
    {"obs.scrapes", "count"},
    {"trace.overhead_ratio", "ratio"},
};

namespace {

/// Epoch whose seal the server-state measurement follows: late enough that
/// the per-user tables have seen every distinct stream of every workload,
/// early enough that every run reaches it (runs end no earlier).
constexpr long long kStateEpoch = 5;
/// A median send-blocked share below this means the senders mostly waited
/// on nothing: the load generator, not the server, set the rate.
constexpr double kMinBlockedRatio = 0.5;
/// Output-check failures kept verbatim (the rest are only counted).
constexpr std::size_t kMaxFailureMessages = 20;

struct EpochSample {
  bool traced = false;
  long long accepted = 0;
  long long records = 0;
  double ingest_s = 0.0;  ///< first write -> full drain
  double cycle_s = 0.0;   ///< open -> sealed
  double fresh_s = 0.0;   ///< last write -> sealed
  double seal_s = 0.0;
  double server_cpu_ns = 0.0;  ///< open -> sealed
  double busy_cpu_ns = 0.0;    ///< senders signalled -> drained
  double busy_wall_ns = 0.0;
  double blocked_ratio = 0.0;
  long long sink_ns = 0;
  long long sink_calls = 0;
  /// Traced epochs: the server.ingest span's self time (loop CPU minus the
  /// sink batches under it).
  long long server_self_ns = 0;
  std::vector<long long> backlog;
};

/// Where each connection's final write of an epoch starts: the first
/// record boundary at most kWriteChunk bytes before the end of its slice,
/// so the tail is one write that fits an empty socket queue.
struct TailSplit {
  std::array<std::size_t, kSenders> offset{};
  long long records = 0;  ///< records in the tails of all slices
};

TailSplit SplitTails(const EpochTraffic& traffic) {
  TailSplit split;
  for (int s = 0; s < kSenders; ++s) {
    const std::vector<std::uint8_t>& bytes = traffic.slices[s];
    const std::size_t from =
        bytes.size() > kWriteChunk ? bytes.size() - kWriteChunk : 0;
    std::size_t off = 0;
    split.offset[s] = bytes.size();
    while (off < bytes.size()) {
      if (off >= from && split.offset[s] == bytes.size()) split.offset[s] = off;
      if (off >= from) ++split.records;
      off += 2 + ((static_cast<std::size_t>(bytes[off]) << 8) | bytes[off + 1]);
    }
  }
  return split;
}

/// One complete set-up: inputs, sink, server, connections and scraper.
/// Members are declared so that destruction stops the users of a resource
/// before the resource: scraper and senders before the server, the server
/// before the sink, everything before the registry.
struct Instance {
  std::unique_ptr<Workload> workload;
  std::vector<TailSplit> tails;  ///< one per entry of workload->traffic()
  ldpr::obs::MetricsRegistry registry;
  std::unique_ptr<Service> service;
  std::unique_ptr<TimingSink> timing;
  std::unique_ptr<ldpr::serve::IngestServer> server;
  std::vector<std::unique_ptr<Sender>> senders;
  std::unique_ptr<Scraper> scraper;
  long long heap_before = 0;
  long long records_sent = 0;
  /// Main-thread CPU spent inside Seal(): server work done on a benchmark
  /// thread, so it counts as the server's.
  long long seal_cpu_ns = 0;

  /// Process CPU minus the CPU of the benchmark's own threads.
  long long ServerCpuNs() {
    long long bench = SelfThreadCpuNs() - seal_cpu_ns;
    for (auto& sender : senders) bench += sender->CpuNs();
    if (scraper) bench += scraper->CpuNs();
    return ProcessCpuNs() - bench;
  }
};

/// Removes the run's socket files however the run ends.
struct SocketFiles {
  std::vector<std::string> paths;
  ~SocketFiles() {
    for (const std::string& path : paths) ::unlink(path.c_str());
  }
};

struct Totals {
  long long records_sent = 0;
  long long unaccounted = 0;
  long long other_rejects = 0;
  long long protocol_errors = 0;
  long long shed_connections = 0;
  long long rate_limited = 0;
  long long wire_bytes = 0;
  long long framed = 0;
  long long scrapes = 0;
  long long scrape_failures = 0;
  std::vector<double> scrape_ms;
};

void AddFailure(std::vector<std::string>& failures, std::string message) {
  if (failures.size() < kMaxFailureMessages) {
    failures.push_back(std::move(message));
  } else if (failures.size() == kMaxFailureMessages) {
    failures.push_back("(further failures not shown)");
  }
}

/// Stops the scraper, the connections and the server, and folds their
/// final counters into the totals. The sink and its sealed output stay.
void StopTraffic(Instance& inst, Totals& totals) {
  if (inst.scraper) {
    inst.scraper->Stop();
    totals.scrapes += inst.scraper->scrapes();
    totals.scrape_failures += inst.scraper->failures();
    const std::vector<double>& ms = inst.scraper->round_trip_ms();
    totals.scrape_ms.insert(totals.scrape_ms.end(), ms.begin(), ms.end());
    inst.scraper.reset();
  }
  inst.senders.clear();
  inst.server->Stop();
  const ldpr::serve::ServerCounters sc = inst.server->counters();
  totals.protocol_errors += sc.sessions.protocol_errors;
  totals.shed_connections += sc.shed_connections;
  totals.rate_limited += sc.sessions.ingest.rate_limited;
  totals.wire_bytes += sc.sessions.wire_bytes;
  totals.framed += sc.sessions.records;
}

/// Waits until the server has framed every record sent so far. Gives up
/// after `patience_ns` without progress; returns the records framed.
long long WaitForDrain(Instance& inst, long long patience_ns) {
  long long framed = -1;
  long long last_progress = NowNs();
  while (true) {
    const long long now_framed = inst.server->counters().sessions.records;
    const long long now = NowNs();
    if (now_framed >= inst.records_sent) return now_framed;
    if (now_framed != framed) {
      framed = now_framed;
      last_progress = now;
    } else if (now - last_progress > patience_ns) {
      return framed;
    }
    // Spin briefly between polls: each poll takes the server's counters
    // mutex, which the loop holds while it frames a chunk.
    const long long until = now + 5000;
    while (NowNs() < until) {
    }
  }
}

/// Writes `bytes[s]` on connection s, every connection's final write
/// together; returns when all are written.
std::array<SendStats, kSenders> SendAll(
    Instance& inst,
    const std::array<std::span<const std::uint8_t>, kSenders>& bytes) {
  std::barrier<> last_chunk(kSenders);
  for (int s = 0; s < kSenders; ++s) {
    inst.senders[s]->Post(bytes[s], last_chunk);
  }
  std::array<SendStats, kSenders> stats;
  for (int s = 0; s < kSenders; ++s) stats[s] = inst.senders[s]->Wait();
  return stats;
}

/// One closed-loop epoch: open, send every record on both connections
/// (bodies, drain, tails), wait for the server to frame them all, seal.
void RunEpoch(Instance& inst, long long epoch, bool traced, Tracer& tracer,
              std::atomic<long long>& current_epoch, Totals& totals,
              EpochSample& out, std::vector<std::string>& failures) {
  const std::vector<EpochTraffic>& all = inst.workload->traffic();
  const EpochTraffic& traffic =
      all[static_cast<std::size_t>(epoch) % all.size()];
  const std::string label = "epoch " + std::to_string(epoch);
  current_epoch.store(epoch, std::memory_order_relaxed);
  out.traced = traced;
  out.records = traffic.records;

  const long long cpu_open = inst.ServerCpuNs();
  const long long t_open = NowNs();
  inst.service->Open();
  Span epoch_span;
  epoch_span.name = "epoch";
  epoch_span.epoch = epoch;
  epoch_span.count = traffic.records;
  const int epoch_id = tracer.Record(epoch_span);
  Span ingest_span;
  ingest_span.name = "server.ingest";
  ingest_span.parent = epoch_id;
  ingest_span.epoch = epoch;
  ingest_span.count = traffic.records;
  const int ingest_id = tracer.Record(ingest_span);
  if (inst.timing) inst.timing->BeginEpoch(epoch, ingest_id, traced);

  const long long cpu_signal = inst.ServerCpuNs();
  const long long t_signal = NowNs();
  // The bodies go out first and are drained; then both tails are written
  // together into empty queues. Every epoch thus ends with the same work in
  // front of the server (the tails), and freshness times that and the seal
  // rather than how full the socket queues happened to be.
  const TailSplit& split =
      inst.tails[static_cast<std::size_t>(epoch) % all.size()];
  std::array<std::span<const std::uint8_t>, kSenders> bodies;
  std::array<std::span<const std::uint8_t>, kSenders> tails;
  for (int s = 0; s < kSenders; ++s) {
    const std::span<const std::uint8_t> slice = traffic.slices[s];
    bodies[s] = slice.first(split.offset[s]);
    tails[s] = slice.subspan(split.offset[s]);
  }
  const long long patience = 30000000000LL;
  const std::array<SendStats, kSenders> body = SendAll(inst, bodies);
  inst.records_sent += traffic.records - split.records;
  WaitForDrain(inst, patience);
  const std::array<SendStats, kSenders> tail = SendAll(inst, tails);
  inst.records_sent += split.records;

  long long first_write = 0;
  long long last_write = 0;
  double blocked = 0.0;
  bool send_failed = false;
  for (int s = 0; s < kSenders; ++s) {
    first_write = s == 0 ? body[s].start_ns
                         : std::min(first_write, body[s].start_ns);
    last_write = std::max(last_write, tail[s].end_ns);
    const double wall = static_cast<double>(
        body[s].end_ns - body[s].start_ns + tail[s].end_ns - tail[s].start_ns);
    const double cpu = static_cast<double>(body[s].cpu_ns + tail[s].cpu_ns);
    blocked += wall > 0.0 ? 1.0 - cpu / wall : 0.0;
    for (const SendStats* stats : {&body[s], &tail[s]}) {
      send_failed |= stats->failed;
      out.backlog.insert(out.backlog.end(), stats->backlog.begin(),
                         stats->backlog.end());
      Span send_span;
      send_span.name = "loadgen.send";
      send_span.parent = epoch_id;
      send_span.epoch = epoch;
      send_span.batch = s;
      send_span.start_ns = stats->start_ns;
      send_span.end_ns = stats->end_ns;
      send_span.count = stats->bytes;
      send_span.busy_ns = stats->cpu_ns;
      tracer.Record(send_span);
    }
  }
  out.blocked_ratio = blocked / kSenders;
  if (send_failed) AddFailure(failures, label + ": a sender write failed");

  totals.records_sent += traffic.records;
  const long long framed =
      WaitForDrain(inst, send_failed ? 2000000000LL : patience);
  if (framed < inst.records_sent) {
    totals.unaccounted += inst.records_sent - framed;
    AddFailure(failures, label + ": " +
                             std::to_string(inst.records_sent - framed) +
                             " records never reached the server");
    inst.records_sent = framed;
  }
  const long long t_drained = NowNs();
  const long long cpu_drained = inst.ServerCpuNs();
  if (inst.timing) {
    const auto [inside, calls] = inst.timing->EndEpoch();
    out.sink_ns = inside;
    out.sink_calls = calls;
  }

  const long long main_cpu_before = SelfThreadCpuNs();
  const long long t_seal = NowNs();
  const SealStats sealed = inst.service->Seal();
  const long long t_sealed = NowNs();
  inst.seal_cpu_ns += SelfThreadCpuNs() - main_cpu_before;
  const long long cpu_sealed = inst.ServerCpuNs();

  Span seal_span;
  seal_span.name = "seal";
  seal_span.parent = epoch_id;
  seal_span.epoch = epoch;
  seal_span.start_ns = t_seal;
  seal_span.end_ns = t_sealed;
  tracer.Record(seal_span);
  tracer.Finish(epoch_id, t_open, t_sealed);
  tracer.Finish(ingest_id, t_signal, t_drained, cpu_drained - cpu_signal);
  if (traced) out.server_self_ns = tracer.SelfNs(ingest_id);

  out.accepted = sealed.accepted;
  out.ingest_s = static_cast<double>(t_drained - first_write) / 1e9;
  out.cycle_s = static_cast<double>(t_sealed - t_open) / 1e9;
  out.fresh_s = static_cast<double>(t_sealed - last_write) / 1e9;
  out.seal_s = static_cast<double>(t_sealed - t_seal) / 1e9;
  out.server_cpu_ns = static_cast<double>(cpu_sealed - cpu_open);
  out.busy_cpu_ns = static_cast<double>(cpu_drained - cpu_signal);
  out.busy_wall_ns = static_cast<double>(t_drained - t_signal);

  totals.other_rejects += sealed.other_rejects;
  if (sealed.duplicates != traffic.duplicates) {
    AddFailure(failures, label + ": " + std::to_string(sealed.duplicates) +
                             " duplicate rejects, " +
                             std::to_string(traffic.duplicates) + " injected");
  }
  if (sealed.accepted + sealed.duplicates + sealed.other_rejects !=
      traffic.records) {
    AddFailure(failures, label + ": sealed " + std::to_string(sealed.accepted) +
                             " accepted of " +
                             std::to_string(traffic.records) + " records sent");
  }
}

/// Feeds the first `epochs` epochs of the workload's traffic through
/// in-process WireSessions (one per connection, each on its own thread, as
/// the server would) into `ref`, sealing after each.
void FeedReference(Service& ref, const Workload& workload, long long epochs,
                   bool corrupt, std::vector<std::string>& failures) {
  std::unique_ptr<ldpr::serve::UserAdmissionTable> admission;
  if (workload.admission().per_user_rate > 0.0) {
    admission =
        std::make_unique<ldpr::serve::UserAdmissionTable>(workload.admission());
  }
  const std::vector<EpochTraffic>& all = workload.traffic();
  for (long long epoch = 0; epoch < epochs; ++epoch) {
    ref.Open();
    const EpochTraffic& traffic =
        all[static_cast<std::size_t>(epoch) % all.size()];
    const double now = static_cast<double>(epoch);
    std::array<std::string, kSenders> errors;
    std::vector<std::thread> feeders;
    for (int s = 0; s < kSenders; ++s) {
      std::span<const std::uint8_t> bytes = traffic.slices[s];
      if (corrupt && epoch == 0 && s == 0 && bytes.size() >= 2) {
        bytes = bytes.subspan(2 + ((static_cast<std::size_t>(bytes[0]) << 8) |
                                   bytes[1]));
      }
      feeders.emplace_back([&, s, bytes] {
        try {
          ldpr::serve::WireSession session(ref.sink(), admission.get(), {}, s,
                                           now);
          for (std::size_t off = 0; off < bytes.size(); off += kWriteChunk) {
            const std::size_t n = std::min(kWriteChunk, bytes.size() - off);
            if (!session.Feed(bytes.subspan(off, n), now)) {
              errors[s] = "protocol error";
              return;
            }
          }
        } catch (const std::exception& e) {
          errors[s] = e.what();
        }
      });
    }
    for (std::thread& feeder : feeders) feeder.join();
    for (const std::string& error : errors) {
      if (!error.empty()) {
        AddFailure(failures, "reference epoch " + std::to_string(epoch) +
                                 ": " + error);
      }
    }
    ref.Seal();
  }
}

/// Checks that every field of `got` equals the reference's field of the
/// same name, and (unless `prefix`) that the reference has no fields `got`
/// lacks. Fields named "sequence.*" are skipped when `skip_sequence`.
void CompareFields(const Fields& got, const Fields& want, bool skip_sequence,
                   bool prefix, const std::string& what,
                   std::vector<std::string>& failures) {
  const auto skipped = [&](const std::string& name) {
    return skip_sequence && name.rfind("sequence.", 0) == 0;
  };
  std::unordered_map<std::string, const std::string*> expected;
  for (const auto& [name, value] : want) {
    if (!skipped(name)) expected.emplace(name, &value);
  }
  std::size_t compared = 0;
  for (const auto& [name, value] : got) {
    if (skipped(name)) continue;
    const auto it = expected.find(name);
    if (it == expected.end()) {
      AddFailure(failures, what + ": " + name + " is not in the reference");
      return;
    }
    if (*it->second != value) {
      AddFailure(failures, what + ": " + name + " = " + value +
                               ", reference " + *it->second);
      return;
    }
    ++compared;
  }
  if (!prefix && compared != expected.size()) {
    AddFailure(failures, what + ": " + std::to_string(compared) + " of " +
                             std::to_string(expected.size()) +
                             " reference fields present");
  }
}

std::string Format(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

/// "name: p50 X, pNN Y (n epochs)" with pNN the highest of p99/p90/p75
/// that has at least ten samples beyond it.
std::string Tail(const char* name, const std::vector<double>& samples) {
  std::string line = std::string(name) + ": p50 " +
                     Format("%.4g", Percentile(samples, 50.0));
  for (const double p : {99.0, 90.0, 75.0}) {
    if (static_cast<double>(samples.size()) * (100.0 - p) / 100.0 >= 10.0) {
      line += ", p" + Format("%.0f", p) + " " +
              Format("%.4g", Percentile(samples, p));
      break;
    }
  }
  return line + " (" + std::to_string(samples.size()) + " epochs)";
}

/// Self time per record of every layer on the path, from the per-layer
/// metrics; names the largest.
void AttributeLayers(const Metrics& layers, double records_per_epoch,
                     double framed, std::vector<std::string>& notes) {
  const auto at = [&](const char* name) { return layers.at(name); };
  const std::vector<std::pair<const char*, double>> self = {
      {"server", std::max(0.0, at("server.self_ns_per_record") -
                                   at("wire_session.self_ns_per_record") -
                                   at("admission.ns_per_admit"))},
      {"wire_session", at("wire_session.self_ns_per_record")},
      {"admission", at("admission.ns_per_admit")},
      {"longitudinal",
       at("longitudinal.ingest_self_ns_per_report") +
           std::max(0.0, at("longitudinal.seal_ms") * 1e6 -
                             at("collector.drain_us") * 1e3) /
               records_per_epoch},
      {"collector", std::max(0.0, at("collector.ingest_ns_per_report") -
                                      at("fo.validate_ns_per_report") -
                                      at("fo.block_ns_per_report")) +
                        at("collector.drain_us") * 1e3 / records_per_epoch},
      {"fo", at("fo.validate_ns_per_report") + at("fo.block_ns_per_report")},
      {"multidim_collector",
       at("multidim_collector.ingest_ns_per_tuple") +
           at("multidim_collector.seal_us") * 1e3 / records_per_epoch},
      {"obs", framed > 0.0
                  ? at("obs.render_us") * 1e3 * at("obs.scrapes") / framed
                  : 0.0},
  };
  std::string line = "layer self time (ns/record):";
  const char* largest = "";
  double largest_ns = -1.0;
  for (const auto& [name, ns] : self) {
    if (ns <= 0.0) continue;
    line += std::string(" ") + name + "=" + Format("%.1f", ns);
    if (ns > largest_ns) {
      largest_ns = ns;
      largest = name;
    }
  }
  notes.push_back(line);
  notes.push_back(std::string("largest self time: ") + largest);
}

}  // namespace

void Run(const RunOptions& options, WorkloadFactory factory, bool smoke,
         RunReport& report) {
  Tracer tracer(options.trace);
  std::atomic<long long> current_epoch{-1};
  const std::string ingest_path = options.socket_prefix + ".ingest";
  const std::string admin_path = options.socket_prefix + ".admin";
  const SocketFiles cleanup{{ingest_path, admin_path}};
  std::vector<std::string>& failures = report.check_failures;
  Metrics& layers = report.layers;
  for (const MetricDef& def : kLayerMetrics) layers[def.name] = 0.0;
  Totals totals;
  std::vector<double> setup_s;
  std::vector<double> cold_rates;
  std::vector<double> state_mb;
  std::vector<double> render_us;
  std::vector<std::vector<Fields>> digests;  // [set-up][epoch]
  std::vector<Fields> windows;               // [set-up]
  // Reserved before any heap measurement so its growth never counts as
  // server state.
  std::vector<EpochSample> steady;
  steady.reserve(1 << 14);

  // Every set-up runs its cold epoch and then a share of the steady
  // epochs, so the medians pool several independent heaps and table
  // layouts instead of resting on one.
  const double steady_ns = options.seconds * 1e9 / options.setups;
  std::unique_ptr<Instance> inst;
  for (int setup = 0; setup < options.setups; ++setup) {
    inst.reset();  // the previous set-up's state goes before the next's
    const long long setup_start = NowNs();
    inst = std::make_unique<Instance>();
    inst->workload = factory(options.seed, smoke);
    const Workload& workload = *inst->workload;
    for (const EpochTraffic& traffic : workload.traffic()) {
      inst->tails.push_back(SplitTails(traffic));
    }
    inst->heap_before = HeapInUseBytes();
    inst->service =
        workload.MakeService(workload.scraped() ? &inst->registry : nullptr);
    ldpr::serve::IngestSink* sink = &inst->service->sink();
    if (options.trace) {
      inst->timing = std::make_unique<TimingSink>(*sink, tracer);
      sink = inst->timing.get();
    }
    ldpr::serve::ServerOptions server_options;
    server_options.uds_path = ingest_path;
    server_options.max_connections = 8;
    server_options.admission = workload.admission();
    if (workload.scraped()) {
      server_options.admin_uds_path = admin_path;
      server_options.metrics = &inst->registry;
    }
    inst->server =
        std::make_unique<ldpr::serve::IngestServer>(*sink, server_options);
    inst->server->Start();
    for (int s = 0; s < kSenders; ++s) {
      inst->senders.push_back(
          std::make_unique<Sender>(ingest_path, options.trace));
    }
    if (workload.scraped()) {
      inst->scraper =
          std::make_unique<Scraper>(admin_path, tracer, current_epoch);
    }
    setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    EpochSample cold;
    RunEpoch(*inst, 0, false, tracer, current_epoch, totals, cold, failures);
    cold_rates.push_back(static_cast<double>(cold.accepted) / cold.ingest_s);

    // Traced runs alternate timed and untimed epochs, so the tracing
    // overhead is measured under the same conditions.
    const long long steady_start = NowNs();
    long long epochs = 1;
    for (;; ++epochs) {
      steady.emplace_back();
      RunEpoch(*inst, epochs, options.trace && epochs % 2 == 1, tracer,
               current_epoch, totals, steady.back(), failures);
      if (epochs == kStateEpoch) {
        state_mb.push_back(
            static_cast<double>(HeapInUseBytes() - inst->heap_before) /
            1048576.0);
      }
      if (epochs >= kStateEpoch &&
          static_cast<double>(NowNs() - steady_start) >= steady_ns) {
        ++epochs;
        break;
      }
    }
    if (workload.scraped()) {
      for (int i = 0; i < 5; ++i) {
        const long long start = NowNs();
        const std::string text = inst->registry.RenderPrometheus();
        render_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
        if (text.empty()) AddFailure(failures, "empty /metrics rendering");
      }
    }
    StopTraffic(*inst, totals);

    digests.emplace_back();
    for (long long e = 0; e < epochs; ++e) {
      digests.back().push_back(inst->service->DigestEpoch(e));
    }
    windows.push_back(inst->service->DigestWindows());
    const std::string self_check = inst->service->SelfCheck();
    if (!self_check.empty()) AddFailure(failures, self_check);
    if (setup + 1 == options.setups) inst->service->ReportCounts(layers);
    inst->timing.reset();
    inst->server.reset();
    inst->service.reset();
  }
  const Workload& workload = *inst->workload;
  layers["obs.render_us"] = Median(render_us);

  // Output check: everything each set-up sealed against one in-process
  // reference fed the identical records.
  {
    const bool identical = workload.identical_epochs();
    long long epochs = 1;
    for (const std::vector<Fields>& d : digests) {
      epochs = std::max(epochs, static_cast<long long>(d.size()));
    }
    std::unique_ptr<Service> ref = workload.MakeService(nullptr);
    FeedReference(*ref, workload, identical ? 1 : epochs,
                  options.corrupt_reference, failures);
    std::vector<Fields> want;
    for (long long e = 0; e < (identical ? 1 : epochs); ++e) {
      want.push_back(ref->DigestEpoch(e));
    }
    const Fields want_windows = ref->DigestWindows();
    for (std::size_t setup = 0; setup < digests.size(); ++setup) {
      const std::string where = "set-up " + std::to_string(setup) + " ";
      for (std::size_t e = 0; e < digests[setup].size(); ++e) {
        CompareFields(digests[setup][e], want[identical ? 0 : e], identical,
                      false, where + "epoch " + std::to_string(e), failures);
      }
      // A shorter set-up completed a prefix of the reference's windows;
      // its own SelfCheck counted them.
      if (!identical) {
        CompareFields(windows[setup], want_windows, false, true,
                      where + "windows", failures);
      }
    }
  }
  report.correct = failures.empty();

  const long long failed = totals.other_rejects + totals.rate_limited +
                           totals.protocol_errors + totals.shed_connections +
                           totals.unaccounted + totals.scrape_failures;
  report.attempted = totals.records_sent + totals.scrapes;
  report.failed = failed;

  // Steady rates and CPU per report are totals over the epochs (accepted
  // reports over summed time), as a user sees them over a run; the cold
  // rate, one short epoch per set-up, and the latencies are medians.
  struct Sums {
    double accepted = 0.0;
    double ingest_s = 0.0;
    double cycle_s = 0.0;
    double cpu_ns = 0.0;
    long long epochs = 0;
    void Add(const EpochSample& s) {
      accepted += static_cast<double>(s.accepted);
      ingest_s += s.ingest_s;
      cycle_s += s.cycle_s;
      cpu_ns += s.server_cpu_ns;
      ++epochs;
    }
  };
  Sums untraced;
  Sums traced;
  std::vector<double> fresh, seal, busy, blocked, server_self, sink_ns, backlog;
  for (const EpochSample& s : steady) {
    blocked.push_back(s.blocked_ratio);
    seal.push_back(s.seal_s * 1e3);
    for (long long b : s.backlog) backlog.push_back(static_cast<double>(b));
    if (s.traced) {
      traced.Add(s);
      server_self.push_back(static_cast<double>(s.server_self_ns) /
                            static_cast<double>(s.records));
      if (s.sink_calls > 0) {
        sink_ns.push_back(static_cast<double>(s.sink_ns) /
                          static_cast<double>(s.sink_calls));
      }
      continue;
    }
    untraced.Add(s);
    fresh.push_back(s.fresh_s * 1e3);
    busy.push_back(s.busy_cpu_ns / s.busy_wall_ns);
  }
  Metrics& e2e = report.end_to_end;
  e2e["ingest_rate"] = untraced.accepted / untraced.ingest_s;
  e2e["cold_epoch_rate"] = Median(cold_rates);
  e2e["cycle_rate"] = untraced.accepted / untraced.cycle_s;
  e2e["freshness_ms"] = Median(fresh);
  e2e["seal_ms"] = Median(seal);
  e2e["server_cpu_ns_per_report"] = untraced.cpu_ns / untraced.accepted;
  e2e["server_state_mb"] = Median(state_mb);
  e2e["success_ratio"] = 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(report.attempted);
  e2e["setup_s"] = Median(setup_s);

  const double blocked_median = Median(blocked);
  report.notes.push_back(
      "samples: " + std::to_string(options.setups) + " set-ups, " +
      std::to_string(untraced.epochs) + " untraced steady epochs, " +
      std::to_string(traced.epochs) + " traced; " +
      std::to_string(totals.records_sent) + " records sent");
  report.notes.push_back(Tail("freshness_ms", fresh));
  report.notes.push_back(Tail("seal_ms", seal));
  report.notes.push_back("send blocked share (median over epochs): " +
                         Format("%.3f", blocked_median) +
                         (blocked_median < kMinBlockedRatio
                              ? "  VALIDITY WARNING: the load generator, not "
                                "the server, set the rate"
                              : ""));

  layers["fo.isa_tier"] = FoIsaTier();
  layers["loadgen.encode_ns_per_report"] = workload.encode_ns_per_report;
  layers["loadgen.frame_ns_per_record"] = workload.frame_ns_per_record;
  layers["loadgen.send_blocked_ratio"] = blocked_median;
  layers["loadgen.backlog_bytes_p50"] = Percentile(backlog, 50.0);
  layers["loadgen.backlog_bytes_max"] = Percentile(backlog, 100.0);
  layers["server.busy_ratio"] = Median(busy);
  layers["server.self_ns_per_record"] = Median(server_self);
  layers["server.wire_bytes_per_record"] =
      totals.framed > 0 ? static_cast<double>(totals.wire_bytes) /
                              static_cast<double>(totals.framed)
                        : 0.0;
  layers["server.protocol_errors"] = static_cast<double>(totals.protocol_errors);
  layers["server.shed_connections"] =
      static_cast<double>(totals.shed_connections);
  layers["admission.rate_limited"] = static_cast<double>(totals.rate_limited);
  layers["collector.sink_ns_per_record"] = Median(sink_ns);
  layers["obs.scrape_ms_p50"] = Percentile(totals.scrape_ms, 50.0);
  layers["obs.scrapes"] = static_cast<double>(totals.scrapes);
  if (options.trace) {
    layers["trace.overhead_ratio"] = (traced.accepted / traced.ingest_s) /
                                     (untraced.accepted / untraced.ingest_s);
    workload.ReplayLayers(Median(seal), tracer, layers);
    double records_per_epoch = 0.0;
    for (const EpochTraffic& t : workload.traffic()) {
      records_per_epoch += static_cast<double>(t.records);
    }
    records_per_epoch /= static_cast<double>(workload.traffic().size());
    AttributeLayers(layers, records_per_epoch,
                    static_cast<double>(totals.framed), report.notes);
    tracer.Write(options.trace_path, options.provenance);
  }
}

}  // namespace perfbench
