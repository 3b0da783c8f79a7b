#ifndef LDPR_FO_WIRE_H_
#define LDPR_FO_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "fo/bitslice.h"
#include "fo/frequency_oracle.h"

namespace ldpr::fo {

/// Bit-exact wire format for sanitized reports.
///
/// The communication-cost model (fo/comm_cost) prices each protocol's report
/// at its information-theoretic width; this module is the matching codec a
/// deployment would actually ship: it packs a Report into exactly
/// ReportBits(protocol, k, eps) bits (rounded up to whole bytes only at the
/// buffer boundary) and restores it losslessly. Round-tripping every
/// protocol's reports is also the strongest possible test that the cost
/// model's widths are sufficient.
///
/// Encodings (all big-endian within a byte stream, bits packed MSB-first):
///   GRR   value                    ceil(log2 k) bits
///   OLH   hash seed, hashed value  64 + ceil(log2 g) bits
///   SS    omega sorted values      omega * ceil(log2 k) bits
///   SUE   bit vector               k bits
///   OUE   bit vector               k bits
///
/// The subset size omega and the reduced domain g are protocol parameters
/// (derivable from k and eps), so they are not transmitted.

/// Append-only MSB-first bit buffer.
class BitWriter {
 public:
  /// `capacity_bits` reserves room for that many bits up front.
  explicit BitWriter(int capacity_bits = 0) {
    bytes_.reserve(static_cast<std::size_t>((capacity_bits + 7) / 8));
  }

  /// Appends the low `width` bits of `value` (width in [0, 64]).
  void Write(std::uint64_t value, int width);

  /// Number of bits written so far.
  int bit_count() const { return bit_count_; }

  /// The packed bytes (the final partial byte is zero-padded).
  const std::vector<std::uint8_t>& bytes() const& { return bytes_; }
  std::vector<std::uint8_t> bytes() && { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
  int bit_count_ = 0;
};

/// Sequential MSB-first bit reader over a byte buffer (not owned: the
/// buffer must outlive the reader).
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads `width` bits (width in [0, 64]); throws InvalidArgumentError when
  /// the buffer is exhausted.
  std::uint64_t Read(int width);

  int bits_consumed() const { return bit_position_; }

 private:
  std::span<const std::uint8_t> bytes_;
  int bit_position_ = 0;
};

/// Serializes one report emitted by `oracle`. Throws when the report's shape
/// does not match the oracle (wrong payload, out-of-range values).
std::vector<std::uint8_t> SerializeReport(const FrequencyOracle& oracle,
                                          const Report& report);

/// Appends one report's payload to `writer` without byte-aligning — the
/// building block multidimensional tuples (serve/multidim_wire) use to pack
/// several per-attribute reports into one buffer at exactly the priced
/// tuple width. SerializeReport is this plus a fresh writer.
void AppendReport(const FrequencyOracle& oracle, const Report& report,
                  BitWriter* writer);

/// Exact payload width in bits for one of `oracle`'s reports (the value the
/// comm-cost model prices; byte buffers round up to the next multiple of 8).
int SerializedReportBits(const FrequencyOracle& oracle);

/// Bits needed to address n distinct values (0 for n = 1). Shared by the
/// codec and the multidimensional tuple formats built on it.
int CeilLog2(long long n);

/// The strict acceptance rule every ingest surface shares: the buffer is
/// exactly `bits` rounded up to whole bytes AND the final byte's padding
/// bits are zero — so each accepted buffer is exactly one serializer image.
bool ExactWireSize(std::span<const std::uint8_t> buffer, int bits);

/// Restores a report serialized by SerializeReport for the same oracle
/// configuration (protocol, k, epsilon). SS subsets come back sorted.
Report DeserializeReport(const FrequencyOracle& oracle,
                         std::span<const std::uint8_t> bytes);

/// The serving layer's codec checks. Where DeserializeReport allocates a
/// fresh Report and throws on malformed input, a WireDecoder accepts or
/// rejects without heap traffic or exceptions: Validate checks a whole
/// frame and StageField one field of a packed tuple (copying its image into
/// a staging row), both deferring decode work to the block kernels
/// (fo::Aggregator::AccumulateWireBlock); DecodeInto checks and decodes one
/// frame into a Report and folds it in with Aggregator::Accumulate (the
/// scalar AccumulateSupport walk), and is the accept-set reference Validate
/// is pinned against. (The kernels' count reference is DeserializeReport
/// plus FrequencyOracle::AccumulateSupport.)
///
/// Acceptance is strict — stricter than DeserializeReport: the buffer must
/// be exactly the report's width rounded up to whole bytes, the zero-padding
/// bits of the final byte must actually be zero, and every decoded value
/// must be in range (SS subsets strictly increasing). Under those rules
/// decoding is a bijection with SerializeReport, so a collector can count a
/// rejected buffer as definitively malformed rather than merely suspicious.
class WireDecoder {
 public:
  explicit WireDecoder(const FrequencyOracle& oracle);

  /// Decodes one report and accumulates it into `agg` (which must have been
  /// created by the same oracle). Returns true on success. A malformed
  /// buffer is rejected with `agg` untouched; nothing is thrown.
  bool DecodeInto(std::span<const std::uint8_t> buffer, Aggregator& agg);

  /// Accept/reject without decoding or accumulating — the staging-buffer
  /// half of the bitsliced ingest path (serve::Collector validates and
  /// copies each frame here, deferring all decode work to
  /// fo::Aggregator::AccumulateWireBlock at flush). Accepts exactly the
  /// buffers DecodeInto accepts (pinned by the serve fuzz tests). Non-const
  /// for the same reason DecodeInto is: SS field checks run over a reusable
  /// padded scratch so extraction is branchless word loads, never reading
  /// past the caller's buffer.
  bool Validate(std::span<const std::uint8_t> buffer);

  /// Field-level Validate + stage for packed multidimensional tuples
  /// (serve::Collector::IngestTuple): checks the report packed at bit
  /// `bit_offset` of `data` and stores its exact SerializeReport image at
  /// the start of `row`, zero padding after it within the image's last
  /// byte. `data` must hold the field plus bitslice::kRowTailSlack readable
  /// bytes past it (a padded copy of the tuple: GRR fields are read as one
  /// word), and `row` must be a staging row with kRowTailSlack writable
  /// bytes past the image (a GRR image is stored as one word) — so stage a
  /// row's fields in order. Same accept set as Validate on the extracted
  /// image; on a reject `row` holds garbage the caller must not commit.
  bool StageField(const std::uint8_t* data, int bit_offset,
                  std::uint8_t* row) {
    if (protocol_ != Protocol::kGrr) {
      return StagePackedField(data, bit_offset, row);
    }
    // GRR, the common per-attribute field, inline: one word load, one range
    // check and the image stored as one word.
    const std::uint64_t top = bitslice::Load64Be(data + (bit_offset >> 3))
                              << (bit_offset & 7);
    if ((top >> (64 - value_width_)) >= static_cast<std::uint64_t>(k_)) {
      return false;
    }
    const std::uint64_t image =
        __builtin_bswap64(top & (~std::uint64_t{0} << (64 - value_width_)));
    std::memcpy(row, &image, sizeof(image));
    return true;
  }

  /// The exact buffer size DecodeInto accepts.
  std::size_t report_bytes() const { return report_bytes_; }
  /// The payload width in bits (SerializedReportBits of the oracle).
  int report_bits() const { return report_bits_; }

 private:
  /// StageField for the OLH, SS and UE images.
  bool StagePackedField(const std::uint8_t* data, int bit_offset,
                        std::uint8_t* row);
  /// Decodes a length-checked buffer into scratch_, checking field values
  /// (DecodeInto's half after ExactWireSize).
  bool DecodeScratch(std::span<const std::uint8_t> buffer);

  const Protocol protocol_;
  const int k_;
  int value_width_ = 0;  ///< GRR/SS value width; OLH hashed-value width
  int omega_ = 0;        ///< SS subset size
  int g_ = 0;            ///< OLH reduced domain
  int report_bits_ = 0;
  std::size_t report_bytes_ = 0;
  Report scratch_;  ///< DecodeInto's report, sized on first use
  /// SS validation scratch: frame bytes + bitslice::kRowTailSlack, so
  /// whole-word field extraction stays in bounds.
  std::vector<std::uint8_t> validate_scratch_;
  /// SS range + strictly-increasing checks as lane-parallel carry tests.
  bitslice::PackedFieldValidator ss_validator_;
};

}  // namespace ldpr::fo

#endif  // LDPR_FO_WIRE_H_
