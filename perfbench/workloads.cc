// The three workloads: their inputs (built from the seed), the sinks they
// feed, the exact digests the output check compares, and the per-layer
// replays of traced runs.
//
//   longit-grr      user-attributed GRR frames into a LongitudinalCollector
//                   (replay table, per-user admission, scraped metrics);
//   anon-oue        anonymous OUE frames into an EpochManager's collector
//                   (no replay table, no admission): the fast-path ceiling;
//   multidim-rsrfd  anonymous RS+RFD[OUE-r] tuples into a MultidimCollector.

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "core/rng.h"
#include "core/sampling.h"
#include "data/longitudinal.h"
#include "data/priors.h"
#include "data/synthetic.h"
#include "fo/bitslice.h"
#include "fo/factory.h"
#include "fo/wire.h"
#include "harness.h"
#include "multidim/rsrfd.h"
#include "serve/collector.h"
#include "serve/loadgen.h"
#include "serve/longitudinal.h"
#include "serve/multidim_collector.h"
#include "serve/wire_session.h"

namespace perfbench {

namespace {

namespace fo = ldpr::fo;
namespace serve = ldpr::serve;
namespace data = ldpr::data;
namespace privacy = ldpr::privacy;

// ---- Shared pieces ---------------------------------------------------------

double PerItem(long long ns, long long items) {
  return items > 0 ? static_cast<double>(ns) / static_cast<double>(items)
                   : 0.0;
}

/// Frames a scalar stream for the senders: contiguous frame ranges, frame i
/// attributed to user `*first_user + i` (anonymous when unset), every
/// `duplicate_every`-th record of a slice sent twice.
EpochTraffic FrameScalar(const serve::EncodedStream& stream,
                         std::optional<long long> first_user,
                         long long duplicate_every) {
  EpochTraffic traffic;
  for (int s = 0; s < kSenders; ++s) {
    const long long lo = stream.count * s / kSenders;
    const long long hi = stream.count * (s + 1) / kSenders;
    traffic.slices[s] = serve::FrameStreamRecords(stream, lo, hi, first_user,
                                                  duplicate_every);
    const long long duplicates =
        duplicate_every > 0 ? (hi - lo + duplicate_every - 1) / duplicate_every
                            : 0;
    traffic.records += hi - lo + duplicates;
    traffic.duplicates += duplicates;
  }
  return traffic;
}

/// Calls fn(user_id, frame) for every record of a framed slice.
template <typename Fn>
void ForEachRecord(std::span<const std::uint8_t> bytes, Fn&& fn) {
  std::size_t off = 0;
  while (off + 2 <= bytes.size()) {
    const std::size_t body = (static_cast<std::size_t>(bytes[off]) << 8) |
                             static_cast<std::size_t>(bytes[off + 1]);
    std::uint64_t user = 0;
    for (int i = 0; i < 8; ++i) user = (user << 8) | bytes[off + 2 + i];
    fn(user, bytes.subspan(off + 10, body - 8));
    off += 2 + body;
  }
}

/// One epoch's records as the requests a WireSession would make of its
/// sink (lane 0).
std::vector<serve::IngestRequest> Requests(const EpochTraffic& traffic) {
  std::vector<serve::IngestRequest> requests;
  requests.reserve(static_cast<std::size_t>(traffic.records));
  for (const std::vector<std::uint8_t>& slice : traffic.slices) {
    ForEachRecord(slice, [&](std::uint64_t user,
                             std::span<const std::uint8_t> frame) {
      serve::IngestRequest request;
      request.frame = frame;
      if (user != serve::kAnonymousUser) {
        request.user = static_cast<long long>(user);
      }
      requests.push_back(request);
    });
  }
  return requests;
}

void RecordReplay(Tracer& tracer, const char* name, long long start,
                  long long end, long long count) {
  Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.count = count;
  tracer.Record(span);
}

/// Sink that accepts without doing anything, so a replayed WireSession's
/// time is its own.
class AcceptAllSink final : public serve::IngestSink {
 public:
  serve::IngestResult Ingest(const serve::IngestRequest&) override {
    ++calls_;
    return serve::IngestResult::Accepted();
  }
  long long calls() const { return calls_; }

 private:
  long long calls_ = 0;
};

/// WireSession::Feed over the server's 64 KiB read chunks, without a sink
/// behind it or per-user admission in front of the sink.
void ReplayWireSession(const std::vector<EpochTraffic>& traffic,
                       Tracer& tracer, Metrics& out) {
  std::vector<double> per_record;
  for (int rep = 0; rep < 3; ++rep) {
    AcceptAllSink sink;
    serve::WireSession session(sink, nullptr, {}, 0, 0.0);
    const long long start = NowNs();
    for (const EpochTraffic& epoch : traffic) {
      for (const std::vector<std::uint8_t>& slice : epoch.slices) {
        const std::span<const std::uint8_t> bytes(slice);
        for (std::size_t off = 0; off < bytes.size(); off += kWriteChunk) {
          session.Feed(bytes.subspan(off, std::min(kWriteChunk,
                                                   bytes.size() - off)),
                       0.0);
        }
      }
    }
    const long long end = NowNs();
    RecordReplay(tracer, "replay.wire_session.feed", start, end, sink.calls());
    per_record.push_back(PerItem(end - start, sink.calls()));
  }
  out["wire_session.self_ns_per_record"] = Median(per_record);
}

/// WireDecoder::Validate and Aggregator::AccumulateWireBlock (128-row
/// blocks laid out like a Collector lane's staging buffer) over one epoch's
/// frames.
void ReplayFo(const fo::FrequencyOracle& oracle,
              const std::vector<serve::IngestRequest>& requests,
              Tracer& tracer, Metrics& out) {
  const long long n = static_cast<long long>(requests.size());
  fo::WireDecoder decoder(oracle);
  const std::size_t frame_bytes = decoder.report_bytes();
  const std::size_t stride = fo::bitslice::RowStride(frame_bytes);
  std::vector<std::uint8_t> rows(
      static_cast<std::size_t>(n) * stride + fo::bitslice::kRowTailSlack, 0);
  for (long long i = 0; i < n; ++i) {
    std::memcpy(rows.data() + static_cast<std::size_t>(i) * stride,
                requests[static_cast<std::size_t>(i)].frame.data(),
                frame_bytes);
  }
  std::vector<double> validate_ns;
  std::vector<double> block_ns;
  for (int rep = 0; rep < 3; ++rep) {
    long long valid = 0;
    long long start = NowNs();
    for (const serve::IngestRequest& request : requests) {
      valid += decoder.Validate(request.frame) ? 1 : 0;
    }
    long long end = NowNs();
    if (valid != n) throw std::runtime_error("replayed frame failed Validate");
    RecordReplay(tracer, "replay.fo.validate", start, end, n);
    validate_ns.push_back(PerItem(end - start, n));

    const std::unique_ptr<fo::Aggregator> aggregator = oracle.MakeAggregator();
    start = NowNs();
    for (long long b = 0; b < n; b += fo::bitslice::kBlockRows) {
      aggregator->AccumulateWireBlock(
          rows.data() + static_cast<std::size_t>(b) * stride, stride,
          static_cast<int>(std::min<long long>(fo::bitslice::kBlockRows,
                                               n - b)));
    }
    end = NowNs();
    RecordReplay(tracer, "replay.fo.block", start, end, n);
    block_ns.push_back(PerItem(end - start, n));
  }
  out["fo.validate_ns_per_report"] = Median(validate_ns);
  out["fo.block_ns_per_report"] = Median(block_ns);
}

/// LongitudinalCollector::Ingest and Collector::Ingest (one lane each) on
/// the same requests, epoch by epoch, plus Collector::Drain.
void ReplayScalarSinks(const fo::FrequencyOracle& oracle,
                       serve::LongitudinalOptions options,
                       const std::vector<EpochTraffic>& traffic,
                       Tracer& tracer, Metrics& out) {
  options.collector.lanes = 1;
  options.collector.metrics = nullptr;
  serve::LongitudinalCollector longitudinal(oracle, options);
  serve::CollectorOptions plain_options;
  plain_options.lanes = 1;
  serve::Collector plain(oracle, plain_options);
  long long longitudinal_ns = 0;
  long long plain_ns = 0;
  long long n = 0;
  std::vector<double> drain_us;
  for (const EpochTraffic& epoch : traffic) {
    const std::vector<serve::IngestRequest> requests = Requests(epoch);
    longitudinal.OpenEpoch();
    long long start = NowNs();
    for (const serve::IngestRequest& request : requests) {
      longitudinal.Ingest(request);
    }
    long long end = NowNs();
    RecordReplay(tracer, "replay.longitudinal.ingest", start, end,
                 static_cast<long long>(requests.size()));
    longitudinal_ns += end - start;
    longitudinal.Seal();

    start = NowNs();
    for (const serve::IngestRequest& request : requests) plain.Ingest(request);
    end = NowNs();
    RecordReplay(tracer, "replay.collector.ingest", start, end,
                 static_cast<long long>(requests.size()));
    plain_ns += end - start;
    start = NowNs();
    plain.Drain();
    end = NowNs();
    RecordReplay(tracer, "replay.collector.drain", start, end, 1);
    drain_us.push_back(static_cast<double>(end - start) / 1e3);
    n += static_cast<long long>(requests.size());
  }
  out["collector.ingest_ns_per_report"] = PerItem(plain_ns, n);
  out["longitudinal.ingest_self_ns_per_report"] =
      PerItem(longitudinal_ns - plain_ns, n);
  out["collector.drain_us"] = Median(drain_us);
}

// ---- Services --------------------------------------------------------------

void AddLedger(Fields& out, const std::string& name,
               const privacy::LedgerReport& ledger) {
  AddField(out, name + ".total_epsilon", ledger.total_epsilon);
  AddField(out, name + ".per_attribute", ledger.per_attribute);
  AddField(out, name + ".worst_attribute_epsilon",
           ledger.worst_attribute_epsilon);
  AddField(out, name + ".amplified_epsilon", ledger.amplified_epsilon);
  AddField(out, name + ".fresh", ledger.fresh);
  AddField(out, name + ".memoized", ledger.memoized);
  AddField(out, name + ".users", ledger.users);
  AddField(out, name + ".mean_user_epsilon", ledger.mean_user_epsilon);
  AddField(out, name + ".max_user_epsilon", ledger.max_user_epsilon);
}

void AddStats(Fields& out, const serve::IngestStats& stats) {
  AddField(out, "stats.reports", stats.reports);
  AddField(out, "stats.bytes", stats.bytes);
  AddField(out, "stats.rejected", stats.rejected);
  AddField(out, "stats.duplicates", stats.duplicates);
  AddField(out, "stats.rate_limited", stats.rate_limited);
  AddField(out, "stats.shed", stats.shed);
  AddField(out, "stats.closed_epoch", stats.closed_epoch);
}

SealStats ToSealStats(const serve::IngestStats& stats) {
  SealStats out;
  out.accepted = stats.reports;
  out.duplicates = stats.duplicates;
  out.other_rejects =
      stats.rejected + stats.rate_limited + stats.shed + stats.closed_epoch;
  return out;
}

/// A LongitudinalCollector: the longit-grr sink, and (on the one-epoch
/// fixed schedule EpochManager builds) the anon-oue sink.
class LongitudinalService final : public Service {
 public:
  LongitudinalService(const fo::FrequencyOracle& oracle,
                      const serve::LongitudinalOptions& options)
      : collector_(oracle, options) {}

  serve::IngestSink& sink() override { return collector_; }
  void Open() override { collector_.OpenEpoch(); }
  SealStats Seal() override { return ToSealStats(collector_.Seal().stats); }

  Fields DigestEpoch(long long epoch) const override {
    const serve::EstimateSnapshot& s =
        collector_.snapshots()[static_cast<std::size_t>(epoch)];
    Fields out;
    AddField(out, "sequence.epoch", s.epoch);
    AddField(out, "n", s.n);
    AddField(out, "counts", s.counts);
    AddField(out, "frequencies", s.frequencies);
    AddField(out, "consistent", s.consistent);
    AddStats(out, s.stats);
    AddLedger(out, "ledger", s.ledger);
    AddLedger(out, "sequence.cumulative_ledger", s.cumulative_ledger);
    return out;
  }

  Fields DigestWindows() const override {
    Fields out;
    for (const serve::WindowSnapshot& w : collector_.windows()) {
      const std::string name = "window[" + std::to_string(w.window) + "]";
      AddField(out, name + ".first_epoch", w.first_epoch);
      AddField(out, name + ".last_epoch", w.last_epoch);
      AddField(out, name + ".n", w.n);
      AddField(out, name + ".counts", w.counts);
      AddField(out, name + ".frequencies", w.frequencies);
      AddField(out, name + ".consistent", w.consistent);
    }
    return out;
  }

  std::string SelfCheck() const override {
    const auto& epochs = collector_.snapshots();
    long long fresh = 0;
    long long memoized = 0;
    for (const serve::EstimateSnapshot& s : epochs) {
      fresh += s.ledger.fresh;
      memoized += s.ledger.memoized;
      if (s.cumulative_ledger.fresh != fresh ||
          s.cumulative_ledger.memoized != memoized) {
        return "epoch " + std::to_string(s.epoch) +
               ": cumulative ledger differs from the sum of epoch ledgers";
      }
    }
    long long completed = 0;
    for (const serve::EstimateSnapshot& s : epochs) {
      completed += collector_.schedule().CompletedWindow(s.epoch) >= 0 ? 1 : 0;
    }
    if (completed != static_cast<long long>(collector_.windows().size())) {
      return std::to_string(collector_.windows().size()) + " windows sealed, " +
             std::to_string(completed) + " completed";
    }
    for (const serve::WindowSnapshot& w : collector_.windows()) {
      std::vector<long long> counts(w.counts.size(), 0);
      long long n = 0;
      for (long long e = w.first_epoch; e <= w.last_epoch; ++e) {
        const serve::EstimateSnapshot& s =
            epochs[static_cast<std::size_t>(e)];
        for (std::size_t v = 0; v < counts.size(); ++v) {
          counts[v] += s.counts[v];
        }
        n += s.n;
      }
      if (counts != w.counts || n != w.n) {
        return "window " + std::to_string(w.window) +
               ": counts differ from the sum of its epochs";
      }
    }
    return "";
  }

  void ReportCounts(Metrics& out) const override {
    long long fresh = 0;
    long long memoized = 0;
    long long duplicates = 0;
    long long malformed = 0;
    for (const serve::EstimateSnapshot& s : collector_.snapshots()) {
      fresh += s.ledger.fresh;
      memoized += s.ledger.memoized;
      duplicates += s.stats.duplicates;
      malformed += s.stats.rejected;
    }
    out["longitudinal.fresh"] = static_cast<double>(fresh);
    out["longitudinal.memoized"] = static_cast<double>(memoized);
    out["longitudinal.duplicates"] = static_cast<double>(duplicates);
    out["longitudinal.memo_hit_ratio"] =
        collector_.cumulative_ledger().MemoizationHitRate();
    out["collector.malformed"] = static_cast<double>(malformed);
  }

 private:
  serve::LongitudinalCollector collector_;
};

class MultidimService final : public Service {
 public:
  MultidimService(const ldpr::multidim::RsRfd& rsrfd,
                  const serve::CollectorOptions& options)
      : collector_(rsrfd, options) {}

  serve::IngestSink& sink() override { return collector_; }
  void Open() override {}
  SealStats Seal() override {
    snapshots_.push_back(collector_.Seal());
    return ToSealStats(snapshots_.back().stats);
  }

  Fields DigestEpoch(long long epoch) const override {
    const serve::MultidimSnapshot& s =
        snapshots_[static_cast<std::size_t>(epoch)];
    Fields out;
    AddField(out, "sequence.epoch", s.epoch);
    AddField(out, "n", s.n);
    for (std::size_t j = 0; j < s.estimates.size(); ++j) {
      AddField(out, "estimates[" + std::to_string(j) + "]", s.estimates[j]);
    }
    AddStats(out, s.stats);
    AddLedger(out, "ledger", s.ledger);
    AddLedger(out, "sequence.cumulative_ledger", s.cumulative_ledger);
    return out;
  }

  std::string SelfCheck() const override {
    long long fresh = 0;
    for (const serve::MultidimSnapshot& s : snapshots_) {
      fresh += s.ledger.fresh;
      if (s.cumulative_ledger.fresh != fresh) {
        return "epoch " + std::to_string(s.epoch) +
               ": cumulative ledger differs from the sum of epoch ledgers";
      }
    }
    return "";
  }

  void ReportCounts(Metrics& out) const override {
    long long malformed = 0;
    for (const serve::MultidimSnapshot& s : snapshots_) {
      malformed += s.stats.rejected;
    }
    out["collector.malformed"] = static_cast<double>(malformed);
  }

 private:
  serve::MultidimCollector collector_;
  std::vector<serve::MultidimSnapshot> snapshots_;
};

// ---- longit-grr ------------------------------------------------------------

/// User-attributed GRR traffic from 1M memoizing clients (serve-demo's
/// population: Zipf(1.3) values over k = 64, stationary churn 0.05). Three
/// rounds are encoded; epoch e replays round e % 3, so epoch 0 inserts
/// every user into the replay and admission tables and later epochs are
/// lookups (churned users add a frame in rounds 1 and 2; from epoch 3 on
/// every frame is a memoized replay).
class LongitGrr final : public Workload {
 public:
  static constexpr int kRounds = 3;
  static constexpr long long kDuplicateEvery = 50;

  LongitGrr(std::uint64_t seed, bool smoke)
      : oracle_(fo::MakeOracle(fo::Protocol::kGrr, 64, 1.0)) {
    const long long users = smoke ? 20000 : 1000000;
    data::LongitudinalConfig drift;
    drift.rounds = kRounds;
    drift.change_probability = 0.05;
    drift.drift = data::DriftKind::kStationary;
    drift.seed = seed;
    const std::vector<std::vector<int>> rounds = data::GenerateScalarRounds(
        ldpr::ZipfDistribution(64, 1.3), static_cast<int>(users), drift);
    serve::LongitudinalClients clients(*oracle_, users, /*memoize=*/true);
    ldpr::Rng root(seed * 977 + 1);
    std::vector<serve::EncodedStream> streams;
    const long long encode_start = NowNs();
    for (const std::vector<int>& values : rounds) {
      streams.push_back(clients.EncodeRound(values, root));
    }
    encode_ns_per_report = PerItem(NowNs() - encode_start, users * kRounds);
    long long records = 0;
    const long long frame_start = NowNs();
    for (const serve::EncodedStream& stream : streams) {
      traffic_.push_back(FrameScalar(stream, 0, kDuplicateEvery));
      records += traffic_.back().records;
    }
    frame_ns_per_record = PerItem(NowNs() - frame_start, records);
  }

  const std::vector<EpochTraffic>& traffic() const override { return traffic_; }

  std::unique_ptr<Service> MakeService(
      ldpr::obs::MetricsRegistry* registry) const override {
    return std::make_unique<LongitudinalService>(*oracle_, Options(registry));
  }

  serve::AdmissionOptions admission() const override {
    // Far above one report (plus one duplicate) per user per epoch at any
    // epoch length, so every honest report is admitted and the table is
    // pure overhead.
    serve::AdmissionOptions options;
    options.per_user_rate = 1e6;
    options.per_user_burst = 8.0;
    return options;
  }

  bool scraped() const override { return true; }

  void ReplayLayers(double seal_ms, Tracer& tracer,
                    Metrics& out) const override {
    ReplayWireSession(traffic_, tracer, out);
    ReplayAdmission(tracer, out);
    ReplayClassify(tracer, out);
    ReplayScalarSinks(*oracle_, Options(nullptr), traffic_, tracer, out);
    ReplayFo(*oracle_, Requests(traffic_[0]), tracer, out);
    out["longitudinal.seal_ms"] = seal_ms;
  }

 private:
  serve::LongitudinalOptions Options(
      ldpr::obs::MetricsRegistry* registry) const {
    serve::LongitudinalOptions options;
    options.schedule = serve::EpochSchedule::Sliding(3);
    options.collector.lanes = kSenders;
    options.collector.metrics = registry;
    return options;
  }

  /// UserAdmissionTable::Admit for every record, epoch by epoch.
  void ReplayAdmission(Tracer& tracer, Metrics& out) const {
    serve::UserAdmissionTable table(admission());
    long long ns = 0;
    long long calls = 0;
    for (std::size_t e = 0; e < traffic_.size(); ++e) {
      const std::vector<serve::IngestRequest> requests = Requests(traffic_[e]);
      const double now = static_cast<double>(e);
      long long admitted = 0;
      const long long start = NowNs();
      for (const serve::IngestRequest& request : requests) {
        admitted += table.Admit(*request.user, now) ? 1 : 0;
      }
      const long long end = NowNs();
      if (admitted != static_cast<long long>(requests.size())) {
        throw std::runtime_error("replayed admission refused a report");
      }
      RecordReplay(tracer, "replay.admission.admit", start, end,
                   static_cast<long long>(requests.size()));
      ns += end - start;
      calls += static_cast<long long>(requests.size());
    }
    out["admission.ns_per_admit"] = PerItem(ns, calls);
    out["admission.users"] = static_cast<double>(table.users());
  }

  /// UserReplayTable::Classify for every record, epoch by epoch, timed in
  /// batches small enough that most are all writes (fresh) or all reads
  /// (memoized or duplicate); mixed batches count toward neither.
  void ReplayClassify(Tracer& tracer, Metrics& out) const {
    constexpr std::size_t kBatch = 8;
    using FrameClass = serve::UserReplayTable::FrameClass;
    const long long heap_before = HeapInUseBytes();
    serve::UserReplayTable table(64);
    long long fresh_ns = 0;
    long long fresh_calls = 0;
    long long read_ns = 0;
    long long read_calls = 0;
    for (std::size_t e = 0; e < traffic_.size(); ++e) {
      const std::vector<serve::IngestRequest> requests = Requests(traffic_[e]);
      const long long epoch_start = NowNs();
      for (std::size_t b = 0; b < requests.size(); b += kBatch) {
        const std::size_t end_index = std::min(requests.size(), b + kBatch);
        std::size_t fresh = 0;
        const long long start = NowNs();
        for (std::size_t i = b; i < end_index; ++i) {
          fresh += table.Classify(*requests[i].user, requests[i].frame,
                                  static_cast<long long>(e)) ==
                           FrameClass::kFresh
                       ? 1
                       : 0;
        }
        const long long ns = NowNs() - start;
        const long long count = static_cast<long long>(end_index - b);
        if (fresh == end_index - b) {
          fresh_ns += ns;
          fresh_calls += count;
        } else if (fresh == 0) {
          read_ns += ns;
          read_calls += count;
        }
      }
      RecordReplay(tracer, "replay.longitudinal.classify", epoch_start,
                   NowNs(), static_cast<long long>(requests.size()));
    }
    const long long state_bytes = HeapInUseBytes() - heap_before;
    std::vector<double> scan_ms;
    serve::UserReplayTable::UserStats stats;
    for (int rep = 0; rep < 3; ++rep) {
      const long long start = NowNs();
      stats = table.Scan();
      const long long end = NowNs();
      RecordReplay(tracer, "replay.longitudinal.scan", start, end,
                   stats.users);
      scan_ms.push_back(static_cast<double>(end - start) / 1e6);
    }
    out["longitudinal.classify_ns_fresh"] = PerItem(fresh_ns, fresh_calls);
    out["longitudinal.classify_ns_memoized"] = PerItem(read_ns, read_calls);
    out["longitudinal.scan_ms"] = Median(scan_ms);
    out["longitudinal.state_bytes_per_user"] = PerItem(state_bytes, stats.users);
  }

  std::unique_ptr<fo::FrequencyOracle> oracle_;
  std::vector<EpochTraffic> traffic_;
};

// ---- anon-oue --------------------------------------------------------------

/// Anonymous OUE frames (k = 100): one encoded stream replayed every epoch
/// (legal because anonymous frames are never replay-classified), so the
/// client's slow OUE encode stays out of the run.
class AnonOue final : public Workload {
 public:
  AnonOue(std::uint64_t seed, bool smoke)
      : oracle_(fo::MakeOracle(fo::Protocol::kOue, 100, 1.0)) {
    const long long n = smoke ? 20000 : 400000;
    const ldpr::CategoricalSampler zipf(ldpr::ZipfDistribution(100, 1.3));
    ldpr::Rng value_rng(seed);
    std::vector<int> values(static_cast<std::size_t>(n));
    for (int& value : values) value = zipf.Sample(value_rng);
    ldpr::Rng root(seed * 977 + 1);
    const long long encode_start = NowNs();
    const serve::EncodedStream stream =
        serve::EncodeScalarLoad(*oracle_, values, root);
    encode_ns_per_report = PerItem(NowNs() - encode_start, n);
    const long long frame_start = NowNs();
    traffic_.push_back(FrameScalar(stream, std::nullopt, 0));
    frame_ns_per_record =
        PerItem(NowNs() - frame_start, traffic_.back().records);
  }

  const std::vector<EpochTraffic>& traffic() const override { return traffic_; }

  std::unique_ptr<Service> MakeService(
      ldpr::obs::MetricsRegistry* registry) const override {
    return std::make_unique<LongitudinalService>(*oracle_, Options(registry));
  }

  bool identical_epochs() const override { return true; }

  void ReplayLayers(double seal_ms, Tracer& tracer,
                    Metrics& out) const override {
    ReplayWireSession(traffic_, tracer, out);
    ReplayScalarSinks(*oracle_, Options(nullptr), traffic_, tracer, out);
    ReplayFo(*oracle_, Requests(traffic_[0]), tracer, out);
    out["longitudinal.seal_ms"] = seal_ms;
  }

 private:
  /// EpochManager's configuration: every epoch its own window.
  static serve::LongitudinalOptions Options(
      ldpr::obs::MetricsRegistry* registry) {
    serve::CollectorOptions collector;
    collector.lanes = kSenders;
    collector.metrics = registry;
    return serve::LongitudinalOptions::FromCollector(collector);
  }

  std::unique_ptr<fo::FrequencyOracle> oracle_;
  std::vector<EpochTraffic> traffic_;
};

// ---- multidim-rsrfd --------------------------------------------------------

/// Anonymous RS+RFD[OUE-r] tuples over ACS-Employment-like records (d = 18,
/// 25-byte tuples) with Laplace-perturbed true-marginal priors, encoded
/// once and replayed every epoch.
class MultidimRsRfd final : public Workload {
 public:
  MultidimRsRfd(std::uint64_t seed, bool smoke) {
    const data::Dataset dataset =
        data::AcsEmploymentLike(seed, smoke ? 0.5 : 10.0);
    ldpr::Rng prior_rng(seed + 1);
    rsrfd_ = std::make_unique<ldpr::multidim::RsRfd>(
        ldpr::multidim::RsRfdVariant::kOueR, dataset.domain_sizes(), 1.0,
        data::BuildPriors(dataset, data::PriorKind::kCorrectLaplace,
                          prior_rng));
    ldpr::Rng root(seed * 977 + 1);
    const long long encode_start = NowNs();
    const serve::EncodedFrames frames =
        serve::EncodeRsRfdLoad(*rsrfd_, dataset, root);
    encode_ns_per_report = PerItem(NowNs() - encode_start, frames.count());
    const long long frame_start = NowNs();
    EpochTraffic traffic;
    for (int s = 0; s < kSenders; ++s) {
      const long long lo = frames.count() * s / kSenders;
      const long long hi = frames.count() * (s + 1) / kSenders;
      for (long long i = lo; i < hi; ++i) {
        serve::AppendWireRecord(serve::kAnonymousUser,
                                {frames.frame(i), frames.frame_size(i)},
                                traffic.slices[s]);
      }
      traffic.records += hi - lo;
    }
    traffic_.push_back(std::move(traffic));
    frame_ns_per_record =
        PerItem(NowNs() - frame_start, traffic_.back().records);
  }

  const std::vector<EpochTraffic>& traffic() const override { return traffic_; }

  std::unique_ptr<Service> MakeService(
      ldpr::obs::MetricsRegistry* registry) const override {
    serve::CollectorOptions options;
    options.lanes = kSenders;
    options.metrics = registry;
    return std::make_unique<MultidimService>(*rsrfd_, options);
  }

  bool identical_epochs() const override { return true; }

  void ReplayLayers(double seal_ms, Tracer& tracer,
                    Metrics& out) const override {
    ReplayWireSession(traffic_, tracer, out);
    const std::vector<serve::IngestRequest> requests = Requests(traffic_[0]);
    const long long n = static_cast<long long>(requests.size());
    std::vector<double> per_tuple;
    for (int rep = 0; rep < 3; ++rep) {
      serve::CollectorOptions options;
      options.lanes = 1;
      serve::MultidimCollector collector(*rsrfd_, options);
      long long accepted = 0;
      const long long start = NowNs();
      for (const serve::IngestRequest& request : requests) {
        accepted += collector.Ingest(request).accepted ? 1 : 0;
      }
      const long long end = NowNs();
      if (accepted != n) throw std::runtime_error("replayed tuple rejected");
      RecordReplay(tracer, "replay.multidim_collector.ingest", start, end, n);
      per_tuple.push_back(PerItem(end - start, n));
    }
    out["multidim_collector.ingest_ns_per_tuple"] = Median(per_tuple);
    out["multidim_collector.seal_us"] = seal_ms * 1e3;
  }

 private:
  std::unique_ptr<ldpr::multidim::RsRfd> rsrfd_;
  std::vector<EpochTraffic> traffic_;
};

template <typename W>
std::unique_ptr<Workload> Make(std::uint64_t seed, bool smoke) {
  return std::make_unique<W>(seed, smoke);
}

}  // namespace

WorkloadFactory FindWorkload(const std::string& name) {
  if (name == "longit-grr") return &Make<LongitGrr>;
  if (name == "anon-oue") return &Make<AnonOue>;
  if (name == "multidim-rsrfd") return &Make<MultidimRsRfd>;
  return nullptr;
}

}  // namespace perfbench
