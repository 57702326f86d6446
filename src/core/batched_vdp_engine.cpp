#include "core/batched_vdp_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/effect_pipeline.hpp"
#include "exec/exec.hpp"
#include "numerics/gemm.hpp"
#include "photonics/crosstalk.hpp"

namespace xl::core {

namespace {
/// Output tile edge: 32x32 pairs keep the per-sample activation row and the
/// per-output carry table hot in cache while giving the executor enough
/// tiles to balance.
constexpr std::size_t kTile = 32;

/// Arena span granularity (matches Arena's 64-byte bump alignment).
std::size_t round64(std::size_t bytes) {
  return (bytes + 63U) & ~static_cast<std::size_t>(63U);
}

/// DAC scale of one operand row: max |v| over its elements (float -> double
/// is exact and max is order-free), matching VdpSimulator::dot's own scale
/// pass.
template <typename T>
double row_scale(const T* row, std::size_t k) {
  double m = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    m = std::max(m, std::abs(static_cast<double>(row[i])));
  }
  return m;
}

/// Weight-side pass of VdpSimulator::dot, once per (output, element).
template <typename T>
PackedGemmWeights pack_rows(const T* w, std::size_t outputs, std::size_t k,
                            const xl::photonics::MrBankTransferLut& lut) {
  PackedGemmWeights packed;
  packed.outputs = outputs;
  packed.k = k;
  packed.sw = numerics::Vector(outputs);
  packed.det.resize(outputs * k);
  packed.neg.resize(outputs * k);
  packed.zero.resize(outputs * k);

  const auto& quant = lut.quantizer();
  const std::size_t bank = lut.bank_size();
  for (std::size_t o = 0; o < outputs; ++o) {
    const T* row = w + o * k;
    const double sw = row_scale(row, k);
    packed.sw[o] = sw;
    if (sw == 0.0) continue;  // Row contributes exact zeros.
    for (std::size_t i = 0; i < k; ++i) {
      const double wv = static_cast<double>(row[i]);
      packed.det[o * k + i] =
          lut.detune_for_code(i % bank, quant.encode(std::abs(wv) / sw));
      packed.neg[o * k + i] = wv < 0.0 ? 1 : 0;
      packed.zero[o * k + i] = wv == 0.0 ? 1 : 0;
    }
  }
  return packed;
}

}  // namespace

BatchedVdpEngine::BatchedVdpEngine(const VdpSimOptions& opts)
    : opts_(opts), sim_(opts) {}

const EffectPipeline& BatchedVdpEngine::effects() const noexcept {
  return sim_.effects();
}

void BatchedVdpEngine::advance_effects(double dt_us) { sim_.effects().advance(dt_us); }

void BatchedVdpEngine::reset_effects() { sim_.effects().reset(); }

numerics::Matrix BatchedVdpEngine::exact_matmul(const numerics::Matrix& x,
                                                const numerics::Matrix& w) {
  return numerics::matmul_transposed(x, w);
}

PackedGemmWeights BatchedVdpEngine::pack_weights(const float* w, std::size_t outputs,
                                                 std::size_t k) const {
  return pack_rows(w, outputs, k, sim_.lut());
}

numerics::Matrix BatchedVdpEngine::photonic_matmul(const numerics::Matrix& x,
                                                   const numerics::Matrix& w) {
  if (x.cols() != w.cols()) {
    throw std::invalid_argument("BatchedVdpEngine::photonic_matmul: K mismatch");
  }
  numerics::Matrix y(x.rows(), w.rows());
  if (y.empty()) return y;  // No rows or no outputs: no work to count.
  const std::size_t k = x.cols();
  const PackedGemmWeights packed = pack_rows(w.row(0).data(), w.rows(), k, sim_.lut());
  numerics::Arena workspace(matmul_workspace_bytes(x.rows(), k));
  GemmTableCache tables;  // Call-local and storage-free: tables stay transient.
  run_gemm(x.row(0).data(), x.rows(), k, packed, &y(0, 0), workspace, tables);
  return y;
}

void BatchedVdpEngine::photonic_matmul(const float* x, std::size_t batch,
                                       std::size_t k, const PackedGemmWeights& w,
                                       double* y, numerics::Arena& workspace,
                                       GemmTableCache& tables) {
  run_gemm(x, batch, k, w, y, workspace, tables);
}

std::size_t BatchedVdpEngine::matmul_workspace_bytes(std::size_t batch,
                                                     std::size_t k) const {
  return round64(batch * sizeof(double)) +                  // sx
         round64(batch * k * sizeof(double)) +              // a_mag
         round64(batch * k * sizeof(unsigned char)) +       // x_neg
         round64(gemm_table_elems(k) * sizeof(double));     // transient idle
}

std::size_t BatchedVdpEngine::gemm_table_elems(std::size_t k) const {
  return sim_.lut().arm_table_elems(k, sim_.effects().crosstalk());
}

std::vector<std::unique_ptr<BatchedVdpEngine::ThreadScratch>>&
BatchedVdpEngine::thread_pool() {
  // One scratch entry per lane that can execute tiles: the current pool's
  // width (lane ids are always < width()).
  const std::size_t want = exec::width();
  while (thread_scratch_.size() < want) {
    thread_scratch_.push_back(std::make_unique<ThreadScratch>());
  }
  return thread_scratch_;
}

void BatchedVdpEngine::warm_thread_scratch(std::size_t max_k) {
  const std::size_t bank = sim_.lut().bank_size();
  const std::size_t chunks = bank == 0 ? 0 : (max_k + bank - 1) / bank;
  const std::size_t te = gemm_table_elems(max_k);
  for (auto& entry : thread_pool()) {
    if (entry->neg.size() < max_k) entry->neg.resize(max_k);
    if (entry->carry.size() < te) entry->carry.resize(te);
    auto& s = entry->scratch;
    if (s.detune_pos.size() < bank) {
      s.detune_pos.resize(bank);
      s.detune_neg.resize(bank);
    }
    if (s.partial.size() < chunks) {
      s.partial.resize(chunks);
      s.noise_key.resize(chunks);
      s.noise_draw.resize(chunks);
    }
  }
}

template <typename T>
void BatchedVdpEngine::run_gemm(const T* x, std::size_t batch, std::size_t k,
                                const PackedGemmWeights& w, double* y,
                                numerics::Arena& workspace, GemmTableCache& tables) {
  if (w.k != k) {
    throw std::invalid_argument("BatchedVdpEngine::photonic_matmul: K mismatch");
  }
  const std::size_t outputs = w.outputs;
  // Skipped rows and columns stay exact zeros, as VdpSimulator::dot returns.
  std::fill(y, y + batch * outputs, 0.0);
  if (batch == 0 || outputs == 0) return;

  stats_.matmuls += 1;
  stats_.dot_products += batch * outputs;
  stats_.macs += batch * outputs * k;
  stats_.max_batch_rows = std::max(stats_.max_batch_rows, batch);
  if (k == 0) return;

  const auto& lut = sim_.lut();
  // The effect pipeline renders thermal/FPV drifts, PD noise, and the
  // crosstalk flag once per matmul; every tile reads the same frozen view.
  const bool crosstalk = sim_.effects().crosstalk();
  const xl::photonics::VdpEffects* fx = sim_.effects().vdp_effects();
  const std::size_t te = lut.arm_table_elems(k, crosstalk);
  const bool has_storage = !tables.carry.empty() || !tables.idle.empty();
  if (has_storage && (tables.idle.size() != te || tables.carry.size() != outputs * te)) {
    throw std::invalid_argument(
        "BatchedVdpEngine::photonic_matmul: GemmTableCache sized for a "
        "different GEMM shape (size with gemm_table_elems)");
  }

  // Activation-side tables — DAC row scale, quantized magnitude, and the
  // sign bit folded into the weight at pair time — live in the caller's
  // arena for the duration of this call only; rewinding keeps the arena's
  // steady-state usage flat.
  const numerics::Arena::Marker marker = workspace.mark();
  const std::span<double> sx = workspace.make_span<double>(batch);
  const std::span<double> a_mag = workspace.make_span<double>(batch * k);
  const std::span<unsigned char> x_neg = workspace.make_span<unsigned char>(batch * k);
  for (std::size_t b = 0; b < batch; ++b) {
    const T* row = x + b * k;
    sx[b] = row_scale(row, k);
    if (sx[b] == 0.0) continue;  // Row contributes exact zeros (tables unread).
    for (std::size_t i = 0; i < k; ++i) {
      const double v = static_cast<double>(row[i]);
      a_mag[b * k + i] = lut.quantize_magnitude(std::abs(v) / sx[b]);
      x_neg[b * k + i] = v < 0.0 ? 1 : 0;
    }
  }

  // Arm-transmission tables: every ring's two achievable operating points
  // under the frozen effect frame (carrying its imprint detuning vs parked
  // idle), keyed by the frame's time stamp (static pipelines stamp 0.0).
  // GemmTableCache documents the hit / persist / transient rule.
  const double frame_stamp =
      sim_.effects().time_dependent() ? sim_.effects().time_us() : 0.0;
  const bool hit = tables.stamp == frame_stamp;
  const bool persist = !hit && has_storage && tables.prev_stamp == frame_stamp;
  const bool transient = !hit && !persist;
  tables.prev_stamp = frame_stamp;
  double* idle = transient ? workspace.make_span<double>(te).data() : tables.idle.data();
  if (!hit) lut.build_idle_table(k, crosstalk, fx, idle);
  if (persist) {
    // Rows are disjoint, so any partition is bit-free; parallel_for's return
    // is the barrier that publishes the tables to the pair loop below.
    exec::parallel_for(0, outputs, 0, [&](std::size_t o0, std::size_t o1, std::size_t) {
      for (std::size_t o = o0; o < o1; ++o) {
        if (w.sw[o] == 0.0) continue;  // Row skipped by the pair loop too.
        lut.build_carry_table({w.det.data() + o * k, k}, crosstalk, fx,
                              tables.carry.data() + o * te);
      }
    });
    tables.stamp = frame_stamp;
    stats_.table_builds += 1;
  }

  // One flattened (batch-tile, output-tile) pair per work item, output-major
  // within the tile: output o's carry table is read once and stays
  // cache-hot across every batch row (pairs are independent, noise is
  // operand-keyed — iteration order and placement are bit-free). Transient
  // tables are built per output into the lane's scratch row, so a tile then
  // spans every batch row of a single output and each row is built once.
  const std::size_t row_edge = transient ? batch : kTile;
  const std::size_t col_edge = transient ? 1 : kTile;
  const std::size_t row_tiles = (batch + row_edge - 1) / row_edge;
  const std::size_t col_tiles = (outputs + col_edge - 1) / col_edge;
  const auto run_pair_tile = [&](std::size_t f, ThreadScratch& ts) {
    const std::size_t b0 = (f / col_tiles) * row_edge;
    const std::size_t b1 = std::min(batch, b0 + row_edge);
    const std::size_t o0 = (f % col_tiles) * col_edge;
    const std::size_t o1 = std::min(outputs, o0 + col_edge);
    unsigned char* neg = ts.neg.data();
    for (std::size_t o = o0; o < o1; ++o) {
      if (w.sw[o] == 0.0) continue;
      const double* det_row = w.det.data() + o * k;
      const unsigned char* ws = w.neg.data() + o * k;
      const unsigned char* wz = w.zero.data() + o * k;
      const double* carry_o =
          transient ? ts.carry.data() : tables.carry.data() + o * te;
      if (transient) lut.build_carry_table({det_row, k}, crosstalk, fx, ts.carry.data());
      for (std::size_t b = b0; b < b1; ++b) {
        if (sx[b] == 0.0) continue;  // y row already zero.
        const double* a_row = a_mag.data() + b * k;
        const unsigned char* xs = x_neg.data() + b * k;
        // Fold the activation sign into the weight: the folded weight is
        // negative iff signs differ and the weight is nonzero (a zero
        // weight lands on the positive arm, as in VdpSimulator::dot).
        for (std::size_t i = 0; i < k; ++i) {
          neg[i] = static_cast<unsigned char>(!wz[i] && (ws[i] != xs[i]));
        }
        y[b * outputs + o] =
            lut.vdp_dot_tbl({a_row, k}, {det_row, k}, {neg, k}, crosstalk,
                            ts.scratch, fx, carry_o, idle) *
            sx[b] * w.sw[o];
      }
    }
  };

  // The scratch pool is sized serially, before the parallel region, so the
  // hot loop never touches the pool vector itself.
  auto& pool = thread_pool();
  exec::parallel_for(0, row_tiles * col_tiles, 1,
                     [&](std::size_t f0, std::size_t f1, std::size_t lane) {
                       ThreadScratch& ts = *pool[lane];
                       if (ts.neg.size() < k) ts.neg.resize(k);
                       if (transient && ts.carry.size() < te) ts.carry.resize(te);
                       for (std::size_t f = f0; f < f1; ++f) run_pair_tile(f, ts);
                     });
  workspace.rewind(marker);
}

int BatchedVdpEngine::achievable_resolution_bits() const {
  xl::photonics::ResolutionOptions ro;
  ro.q_factor = opts_.q_factor;
  ro.center_wavelength_nm = opts_.center_wavelength_nm;
  ro.dac_bit_cap = opts_.resolution_bits;
  const xl::photonics::WavelengthGrid grid(opts_.mrs_per_bank, opts_.fsr_nm,
                                           opts_.center_wavelength_nm);
  return xl::photonics::analyze_crosstalk(grid, ro).resolution_bits;
}

}  // namespace xl::core
