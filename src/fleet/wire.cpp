#include "fleet/wire.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>

namespace xl::fleet {
namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

std::array<std::uint8_t, kHeaderBytes> encode_header(const FrameHeader& header) {
  std::array<std::uint8_t, kHeaderBytes> out{};
  put_u32(out.data() + 0, header.magic);
  put_u32(out.data() + 4, header.version);
  put_u32(out.data() + 8, static_cast<std::uint32_t>(header.type));
  put_u32(out.data() + 12, static_cast<std::uint32_t>(header.channel));
  put_u32(out.data() + 16, header.source);
  put_u32(out.data() + 20, header.dest);
  put_u64(out.data() + 24, header.sequence);
  put_u64(out.data() + 32, header.payload_bytes);
  // Bytes 40..47 are reserved (zero): room for flags/checksums without a
  // version bump.
  return out;
}

FrameHeader decode_header(const std::array<std::uint8_t, kHeaderBytes>& bytes) {
  FrameHeader header;
  header.magic = get_u32(bytes.data() + 0);
  if (header.magic != kMagic) {
    throw std::runtime_error("fleet wire: bad frame magic");
  }
  header.version = get_u32(bytes.data() + 4);
  if (header.version != kWireVersion) {
    throw std::runtime_error("fleet wire: unsupported frame version " +
                             std::to_string(header.version));
  }
  header.type = static_cast<FrameType>(get_u32(bytes.data() + 8));
  header.channel = static_cast<Channel>(get_u32(bytes.data() + 12));
  header.source = get_u32(bytes.data() + 16);
  header.dest = get_u32(bytes.data() + 20);
  header.sequence = get_u64(bytes.data() + 24);
  header.payload_bytes = get_u64(bytes.data() + 32);
  return header;
}

void WireWriter::u32(std::uint32_t v) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + 4);
  put_u32(buffer_.data() + at, v);
}

void WireWriter::u64(std::uint64_t v) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + 8);
  put_u64(buffer_.data() + at, v);
}

void WireWriter::f32(float v) {
  static_assert(sizeof(float) == sizeof(std::uint32_t));
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u32(bits);
}

void WireWriter::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void WireWriter::str(const std::string& s) {
  u64(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

std::uint32_t WireReader::u32() {
  if (buffer_.size() - cursor_ < 4) {
    throw std::runtime_error("fleet wire: truncated frame (u32)");
  }
  const std::uint32_t v = get_u32(buffer_.data() + cursor_);
  cursor_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (buffer_.size() - cursor_ < 8) {
    throw std::runtime_error("fleet wire: truncated frame (u64)");
  }
  const std::uint64_t v = get_u64(buffer_.data() + cursor_);
  cursor_ += 8;
  return v;
}

float WireReader::f32() {
  const std::uint32_t bits = u32();
  float v = 0.0F;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string WireReader::str() {
  const std::uint64_t length = u64();
  if (buffer_.size() - cursor_ < length) {
    throw std::runtime_error("fleet wire: truncated frame (string)");
  }
  std::string s(reinterpret_cast<const char*>(buffer_.data() + cursor_),
                static_cast<std::size_t>(length));
  cursor_ += static_cast<std::size_t>(length);
  return s;
}

void WireReader::expect_done() const {
  if (!done()) {
    throw std::runtime_error("fleet wire: trailing bytes after payload");
  }
}

void write_tensor(WireWriter& w, const dnn::Tensor& tensor) {
  w.u64(tensor.rank());
  for (std::size_t d = 0; d < tensor.rank(); ++d) w.u64(tensor.dim(d));
  const float* data = tensor.data();
  for (std::size_t i = 0; i < tensor.numel(); ++i) w.f32(data[i]);
}

dnn::Tensor read_tensor(WireReader& r) {
  const std::uint64_t rank = r.u64();
  if (rank == 0 || rank > 8) {
    throw std::runtime_error("fleet wire: tensor rank out of range");
  }
  dnn::Shape shape(static_cast<std::size_t>(rank));
  std::uint64_t numel = 1;
  for (auto& dim : shape) {
    const std::uint64_t d = r.u64();
    if (d != 0 && numel > std::numeric_limits<std::uint64_t>::max() / d) {
      throw std::runtime_error("fleet wire: tensor shape overflows");
    }
    numel *= d;
    dim = static_cast<std::size_t>(d);
  }
  // Check the declared payload against the bytes actually present before
  // allocating: a corrupt or hostile shape must not size the allocation.
  if (numel > r.remaining() / sizeof(float)) {
    throw std::runtime_error("fleet wire: tensor payload larger than the frame");
  }
  dnn::Tensor tensor(shape);
  float* data = tensor.data();
  for (std::size_t i = 0; i < tensor.numel(); ++i) data[i] = r.f32();
  return tensor;
}

void write_report(WireWriter& w, const core::AcceleratorReport& report) {
  w.str(report.accelerator);
  w.str(report.model);
  w.f64(report.perf.cycle_ns);
  w.u64(report.perf.batch);
  w.f64(report.perf.frame_latency_us);
  w.f64(report.perf.fps);
  w.f64(report.power.laser_mw);
  w.f64(report.power.to_tuning_mw);
  w.f64(report.power.eo_tuning_mw);
  w.f64(report.power.pd_mw);
  w.f64(report.power.tia_mw);
  w.f64(report.power.vcsel_mw);
  w.f64(report.power.adc_dac_mw);
  w.f64(report.power.control_mw);
  w.f64(report.area_mm2);
  w.u32(static_cast<std::uint32_t>(report.resolution_bits));
  w.u64(report.macs_per_frame);
}

core::AcceleratorReport read_report(WireReader& r) {
  core::AcceleratorReport report;
  report.accelerator = r.str();
  report.model = r.str();
  report.perf.cycle_ns = r.f64();
  report.perf.batch = static_cast<std::size_t>(r.u64());
  report.perf.frame_latency_us = r.f64();
  report.perf.fps = r.f64();
  report.power.laser_mw = r.f64();
  report.power.to_tuning_mw = r.f64();
  report.power.eo_tuning_mw = r.f64();
  report.power.pd_mw = r.f64();
  report.power.tia_mw = r.f64();
  report.power.vcsel_mw = r.f64();
  report.power.adc_dac_mw = r.f64();
  report.power.control_mw = r.f64();
  report.area_mm2 = r.f64();
  report.resolution_bits = static_cast<int>(r.u32());
  report.macs_per_frame = static_cast<std::size_t>(r.u64());
  return report;
}

void write_memo(WireWriter& w, const core::DseMemo& memo) {
  w.u64(memo.entries.size());
  for (const core::DseMemoEntry& entry : memo.entries) {
    w.str(entry.key);
    write_report(w, entry.report);
  }
}

core::DseMemo read_memo(WireReader& r) {
  core::DseMemo memo;
  const std::uint64_t count = r.u64();
  // Every entry starts with its key's u64 length, so a count beyond
  // remaining() / 8 cannot be honest; reject it before reserving.
  if (count > r.remaining() / sizeof(std::uint64_t)) {
    throw std::runtime_error("fleet wire: memo count larger than the frame");
  }
  memo.entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    core::DseMemoEntry entry;
    entry.key = r.str();
    entry.report = read_report(r);
    memo.entries.push_back(std::move(entry));
  }
  return memo;
}

}  // namespace xl::fleet
