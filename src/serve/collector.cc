#include "serve/collector.h"

#include "core/check.h"
#include "core/parallel.h"
#include "fo/bitslice.h"

namespace ldpr::serve {

Collector::Block::Block(
    const std::vector<const fo::FrequencyOracle*>& oracles) {
  columns.reserve(oracles.size());
  // Images sit back to back; every kernel reads a row's image (plus at
  // most 7 masked-off bytes past a field) from its slot onwards.
  for (const fo::FrequencyOracle* oracle : oracles) {
    columns.push_back(
        {stride, fo::WireDecoder(*oracle), oracle->MakeAggregator()});
    stride += columns.back().decoder.report_bytes();
  }
  stride = fo::bitslice::RowStride(stride);
  staging.assign(static_cast<std::size_t>(fo::bitslice::kBlockRows) * stride +
                     fo::bitslice::kRowTailSlack,
                 0);
}

Collector::Lane::Lane(
    const std::vector<std::vector<const fo::FrequencyOracle*>>& oracles,
    int index)
    : index(index) {
  blocks.reserve(oracles.size());
  for (const auto& block_oracles : oracles) blocks.emplace_back(block_oracles);
}

Collector::Collector(const fo::FrequencyOracle& oracle,
                     const CollectorOptions& options)
    : Collector(std::vector<std::vector<const fo::FrequencyOracle*>>{{&oracle}},
                options) {}

Collector::Collector(
    const std::vector<std::vector<const fo::FrequencyOracle*>>& blocks,
    const CollectorOptions& options)
    : oracle_(*blocks.at(0).at(0)),
      options_(options),
      report_bytes_(fo::WireDecoder(oracle_).report_bytes()) {
  for (const auto& oracles : blocks) {
    LDPR_CHECK(!oracles.empty(), "every staging block needs a column");
  }
  int lanes = options.lanes > 0 ? options.lanes : DefaultThreadCount();
  LDPR_CHECK(lanes >= 1, "collector needs at least one lane");
  lanes_.reserve(lanes);
  for (int i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>(blocks, i));
  }
  if (options.metrics) {
    obs_ = std::make_unique<Obs>();
    obs_->registry = options.metrics;
    obs_->decode_block_seconds = options.metrics->GetHistogram(
        "ldpr_decode_block_seconds", "",
        "Latency of one AccumulateWireBlock flush (up to kBlockRows rows)",
        lanes, obs::HistogramUnit::kSeconds);
    obs_->decode_block_rows = options.metrics->GetHistogram(
        "ldpr_decode_block_rows", "", "Rows decoded per block flush", lanes);
    // The ingest counters are exported at scrape time from the tallies the
    // lanes maintain anyway — the per-report path carries no extra work.
    obs_->callback_id = options.metrics->RegisterCallback(
        [this](std::vector<obs::Sample>& out) {
          const IngestCounters totals = TotalsNow();
          out.push_back({"ldpr_ingest_reports_total", "",
                         static_cast<double>(totals.reports),
                         obs::MetricKind::kCounter,
                         "Reports decoded and accumulated"});
          out.push_back({"ldpr_ingest_bytes_total", "",
                         static_cast<double>(totals.bytes),
                         obs::MetricKind::kCounter,
                         "Wire bytes consumed by accepted reports"});
          ForEachRejectField(totals, [&out](const char* name,
                                            long long value) {
            out.push_back({"ldpr_ingest_rejects_total",
                           std::string("reason=\"") + name + "\"",
                           static_cast<double>(value),
                           obs::MetricKind::kCounter,
                           "Reports refused, by reject reason"});
          });
        });
  }
}

Collector::~Collector() {
  if (obs_) obs_->registry->UnregisterCallback(obs_->callback_id);
}

IngestResult Collector::Ingest(const IngestRequest& request) {
  return IngestGated(request, [](const IngestRequest&, IngestCounters&) {
    return RejectReason::kNone;
  });
}

IngestResult Collector::IngestTuple(const IngestRequest& request,
                                    Fields fields) {
  Lane& lane = LaneFor(request.lane);
  std::lock_guard<std::mutex> guard(lane.mutex);
  if (fields.block < 0) return Reject(lane, RejectReason::kMalformed);
  Block& block = lane.blocks[static_cast<std::size_t>(fields.block)];
  // Check and copy every field before committing the row: a rejected
  // tuple leaves only an uncommitted row, which the next tuple overwrites.
  const std::size_t size = request.frame.size();
  if (lane.tuple.size() < size + fo::bitslice::kRowTailSlack) {
    lane.tuple.resize(size + fo::bitslice::kRowTailSlack);
  }
  std::memcpy(lane.tuple.data(), request.frame.data(), size);
  std::uint8_t* const row = block.row();
  int offset = fields.bit_offset;
  for (Column& column : block.columns) {
    if (!column.decoder.StageField(lane.tuple.data(), offset,
                                   row + column.offset)) {
      return Reject(lane, RejectReason::kMalformed);
    }
    offset += column.decoder.report_bits();
  }
  Commit(lane, block);
  return Accept(lane, request);
}

void Collector::FlushLocked(Lane& lane, Block& block) {
  if (block.staged == 0) return;
  const double start = obs_ ? MonotonicSeconds() : 0.0;
  for (Column& column : block.columns) {
    column.aggregator->AccumulateWireBlock(
        block.staging.data() + column.offset, block.stride, block.staged);
  }
  if (obs_) {
    obs_->decode_block_seconds->RecordSeconds(MonotonicSeconds() - start,
                                              lane.index);
    obs_->decode_block_rows->Record(block.staged, lane.index);
  }
  block.staged = 0;
}

IngestCounters Collector::TotalsNow() const {
  IngestCounters totals;
  {
    std::lock_guard<std::mutex> lock(drained_mutex_);
    totals = drained_totals_;
  }
  for (const auto& lane_ptr : lanes_) {
    const Lane& lane = *lane_ptr;
    std::lock_guard<std::mutex> guard(lane.mutex);
    totals.Merge(lane.tallies);
  }
  return totals;
}

int Collector::staged(int lane_hint) const {
  const Lane& lane =
      *lanes_[static_cast<std::size_t>(lane_hint) % lanes_.size()];
  std::lock_guard<std::mutex> guard(lane.mutex);
  return lane.blocks.front().staged;
}

void Collector::IngestHistogram(int lane_hint,
                                const std::vector<long long>& histogram,
                                Rng& rng) {
  Lane& lane = LaneFor(lane_hint);
  std::lock_guard<std::mutex> guard(lane.mutex);
  fo::Aggregator& aggregator = *lane.blocks.front().columns.front().aggregator;
  const long long before = aggregator.n();
  aggregator.AccumulateHistogram(histogram, rng);
  const long long added = aggregator.n() - before;
  lane.tallies.reports += added;
  lane.tallies.bytes += added * static_cast<long long>(report_bytes_);
}

Collector::Drained Collector::Drain() {
  // O(lanes * sum k) integer sums: bit-identical in any lane order.
  Drained out;
  for (const Block& block : lanes_.front()->blocks) {
    for (const Column& column : block.columns) {
      out.counts.resize(out.counts.size() + column.aggregator->oracle().k());
      out.column_n.push_back(0);
    }
  }
  for (const auto& lane_ptr : lanes_) {
    Lane& lane = *lane_ptr;
    std::lock_guard<std::mutex> guard(lane.mutex);
    long long* counts_out = out.counts.data();
    long long* n_out = out.column_n.data();
    for (Block& block : lane.blocks) {
      FlushLocked(lane, block);  // partial blocks are decoded at seal time
      for (Column& column : block.columns) {
        const std::vector<long long>& counts = column.aggregator->counts();
        for (std::size_t v = 0; v < counts.size(); ++v) {
          counts_out[v] += counts[v];
        }
        counts_out += counts.size();
        *n_out++ += column.aggregator->n();
        column.aggregator->Reset();
      }
    }
    out.tallies.Merge(lane.tallies);
    lane.tallies = IngestCounters{};
  }
  out.n = out.tallies.reports;
  {
    // Draining resets the lanes, so fold the epoch's tallies into the
    // lifetime totals mid-run scrapes read (TotalsNow).
    std::lock_guard<std::mutex> lock(drained_mutex_);
    drained_totals_.Merge(out.tallies);
  }
  return out;
}

}  // namespace ldpr::serve
