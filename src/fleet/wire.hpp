// xl::fleet wire format — typed message frames with an explicit, endian-
// pinned byte layout.
//
// Every frame is a fixed 48-byte little-endian header followed by a typed
// payload. The layout is defined byte-by-byte (no struct memcpy), so the
// in-process transport of this PR and a future socket/MPI transport speak
// the *same* bits: dropping in a socket transport is a transport change,
// never a protocol change. Floating-point values travel as their IEEE-754
// object representation (f32/f64 bit patterns), so a value that crosses the
// wire and comes back is bit-identical — the fleet's determinism contract
// (per-sample logits and DSE fronts invariant under node count) depends on
// serialization never rounding anything.
//
// Channels vs types: a Channel is a receive filter (each fleet thread owns
// one channel, which is what makes cross-node halo exchange deadlock-free);
// a FrameType says what the payload means within its channel.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dse_engine.hpp"
#include "core/report.hpp"
#include "dnn/tensor.hpp"

namespace xl::fleet {

/// "XLFL" — rejects cross-protocol/garbage frames at decode time.
inline constexpr std::uint32_t kMagic = 0x584C464CU;
inline constexpr std::uint32_t kWireVersion = 1;
/// Wildcard source rank for Transport::recv.
inline constexpr std::uint32_t kAnySource = 0xFFFFFFFFU;

/// What a frame's payload means (within its channel).
enum class FrameType : std::uint32_t {
  kInferRequest = 1,   ///< serve: model name + input tensor.
  kInferResult = 2,    ///< serve: request id + logits tensor.
  kErrorReply = 3,     ///< serve: request id + error string.
  kDseAssign = 4,      ///< serve: DSE generation + candidate-id stripe.
  kDseMemoDelta = 5,   ///< dse: fresh memo entries a node evaluated.
  kDseMemoMerged = 6,  ///< serve: the coordinator's merged union memo.
  kDseAck = 7,         ///< dse: node finished importing the merged memo.
  kHaloTile = 8,       ///< halo request: boundary activations to tile.
  kHaloTileReply = 9,  ///< halo reply: the computed output-column tile.
  kShutdown = 10,      ///< any channel: the receiving thread exits.
};

/// Receive filter. Every fleet thread blocks on exactly one channel, so a
/// node can serve incoming halo-tile requests (kHaloRequest) while its pump
/// thread is itself blocked waiting for halo replies (kHaloReply) — the
/// two-owner model-parallel deadlock cannot form.
enum class Channel : std::uint32_t {
  kServe = 0,        ///< Coordinator -> node control + requests; node -> coordinator results.
  kHaloRequest = 1,  ///< Peer -> peer boundary-activation tiles.
  kHaloReply = 2,    ///< Peer -> owner computed output tiles.
  kDse = 3,          ///< Node -> coordinator memo deltas / acks.
};

/// Fixed-size frame prefix. `sequence` is the correlation id (request id for
/// serve frames, halo id for halo frames, DSE generation for DSE frames).
struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kWireVersion;
  FrameType type = FrameType::kShutdown;
  Channel channel = Channel::kServe;
  std::uint32_t source = 0;
  std::uint32_t dest = 0;
  std::uint64_t sequence = 0;
  std::uint64_t payload_bytes = 0;
};

inline constexpr std::size_t kHeaderBytes = 48;

/// Serialize the header to its canonical little-endian 48-byte layout.
[[nodiscard]] std::array<std::uint8_t, kHeaderBytes> encode_header(
    const FrameHeader& header);

/// Parse and validate a header (magic, version). Throws std::runtime_error
/// on a foreign or corrupt prefix.
[[nodiscard]] FrameHeader decode_header(
    const std::array<std::uint8_t, kHeaderBytes>& bytes);

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f32(float v);   ///< IEEE-754 bit pattern, never a decimal roundtrip.
  void f64(double v);  ///< IEEE-754 bit pattern, never a decimal roundtrip.
  void str(const std::string& s);  ///< u64 length + raw bytes.

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Sequential payload parser; every accessor throws std::runtime_error on a
/// truncated buffer (a short frame must never read as valid data).
class WireReader {
 public:
  explicit WireReader(const std::vector<std::uint8_t>& buffer)
      : buffer_(buffer) {}

  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] float f32();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  [[nodiscard]] bool done() const noexcept { return cursor_ == buffer_.size(); }
  /// Unread payload bytes: the ceiling for any length a frame declares.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buffer_.size() - cursor_;
  }
  /// Throws unless the payload was consumed exactly — catches both frame
  /// truncation and schema drift between sender and receiver.
  void expect_done() const;

 private:
  const std::vector<std::uint8_t>& buffer_;
  std::size_t cursor_ = 0;
};

// --- typed payload codecs ---------------------------------------------------

/// Tensor: u64 rank, u64 dims..., f32 payload (row-major, numel values).
void write_tensor(WireWriter& w, const dnn::Tensor& tensor);
[[nodiscard]] dnn::Tensor read_tensor(WireReader& r);

/// AcceleratorReport: every field, explicitly (no padding ever on the wire).
void write_report(WireWriter& w, const core::AcceleratorReport& report);
[[nodiscard]] core::AcceleratorReport read_report(WireReader& r);

/// DseMemo: u64 entry count, then (key, report) pairs in stored order.
void write_memo(WireWriter& w, const core::DseMemo& memo);
[[nodiscard]] core::DseMemo read_memo(WireReader& r);

}  // namespace xl::fleet
