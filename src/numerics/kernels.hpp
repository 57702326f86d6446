// Runtime-dispatched SIMD kernels for the three hot loops of every
// functional evaluation: the tiled GEMM dot kernel, the Lorentzian VDP
// transfer product, and the counter-keyed gaussian noise sampler.
//
// Dispatch model
// --------------
// Two kernel tables implement identical contracts:
//   * scalar_table() — the portable reference, always available. This IS the
//     bit-exact oracle: every SIMD kernel must reproduce it exactly.
//   * active_table() — resolved once per process: the AVX2+FMA table when the
//     binary carries the AVX2 translation unit, the CPU reports avx2+fma, and
//     XL_DISABLE_SIMD is not set in the environment; the scalar table
//     otherwise. (Build-time override: -DXL_DISABLE_SIMD=ON compiles the AVX2
//     TU out entirely.)
//
// Bit-identity contract
// ---------------------
// SIMD lanes are mapped to *independent* outputs (GEMM output columns, VDP
// channels, RNG samples), never across one output's reduction chain, so FP
// associativity is preserved by construction:
//   * GEMM: each output element accumulates sequentially over k in lane j,
//     with separate mul + add roundings (the AVX2 TU is compiled with
//     -ffp-contract=off so mul/add never fuse into one-rounding FMA).
//   * Table-driven arm sums: lane = channel; the per-ring transmission
//     product runs sequentially within the lane, and cross-lane sums into
//     the accumulator happen in scalar index order after extraction.
//   * hash_gaussian_n: integer mixing, the uint64->double conversion, and all
//     elementwise arithmetic vectorize exactly (conversion and sqrt are
//     correctly-rounded by IEEE); log/cos go through the scalar libm calls so
//     every sample matches hash_gaussian() bit for bit.
// Consequently a 0-ulp parity tolerance is enforced by the tests
// (tests/test_kernels.cpp) rather than merely approximated. Every kernel
// is order-exact for any input.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xl::numerics::kernels {

enum class Isa { kScalar, kAvx2 };

/// One ISA's implementation of the hot-loop kernels. All pointers non-null.
struct KernelTable {
  /// GEMM microkernel: out[c] = sum_i a[i] * col_c[i] for n_panels * 4
  /// packed output columns. `pack` holds 4-column panels: panel p covers
  /// columns [4p, 4p+4) at pack + p*4*k, interleaved element-major
  /// (pack[p*4*k + i*4 + j] = column (4p+j) element i). Each column's
  /// accumulation is strictly sequential over i with mul+add rounding.
  void (*gemm_row_panels)(const double* a, const double* pack, std::size_t k,
                          std::size_t n_panels, double* out);

  /// Fused balanced-PD arm sums over precomputed ring transmissions, no
  /// crosstalk. `carry[i]`/`idle[i]` hold ring i's transmission when it
  /// carries the weight vs sits idle, each computed with arm_sum_diag's
  /// exact expression; sel[i] says the weight went to the negative arm.
  /// Returns pos - neg for
  ///   pos = sum_i a[i] * (sel[i] ? idle[i] : carry[i])
  ///   neg = sum_i a[i] * (sel[i] ? carry[i] : idle[i])
  /// with both sums accumulated in index order — bit-identical to two
  /// arm_sum_diag calls on the corresponding detune vectors, in one pass.
  double (*arm_pair_diag_tbl)(const double* a, const unsigned char* sel,
                              const double* carry, const double* idle,
                              std::size_t len);

  /// Fused arm sums with crosstalk. Tables are column-major per ring:
  /// t[j*len + i] is ring j's transmission at channel i, sel[j] picks the
  /// arm assignment for ring j (lane-uniform across channels):
  ///   pos_i = a[i] * prod_j (sel[j] ? idle : carry)[j*len + i]
  ///   neg_i = a[i] * prod_j (sel[j] ? carry : idle)[j*len + i]
  /// Returns sum_i pos_i - sum_i neg_i with the same a[i] == 0 skip,
  /// sequential per-channel j-products, and index-order sums as two
  /// arm_sum_xtalk calls — one table pass instead of two.
  double (*arm_pair_xtalk_tbl)(const double* a, const unsigned char* sel,
                               const double* carry, const double* idle,
                               std::size_t len);

  /// Bulk standard-normal draws from explicit keys:
  ///   out[i] == hash_gaussian(keys[i]) bit for bit.
  void (*hash_gaussian_keys)(const std::uint64_t* keys, std::size_t n,
                             double* out);

  /// Counter-splittable bulk sampler:
  ///   out[i] == hash_gaussian(hash_combine(key, base_counter + i))
  /// bit for bit (counter addition wraps mod 2^64). A pure function of
  /// (key, counter): any slicing of [base, base+n) over any number of calls
  /// or threads yields the same samples.
  void (*hash_gaussian_n)(std::uint64_t key, std::uint64_t base_counter,
                          std::size_t n, double* out);

  const char* name;  ///< "scalar" or "avx2".
};

/// Direct Lorentzian arm sums — scalar only, the operand-level reference the
/// table-driven pair kernels above must reproduce. Reached through
/// photonics::MrBankTransferLut::arm_sum, i.e. only by the VdpSimulator::dot
/// oracle.
///
/// On-channel ring only (no parasitic crosstalk):
///   sum_i a[i] * (1 - full * delta_sq[i] / (detune[i]^2 + delta_sq[i]))
/// accumulated in index order.
[[nodiscard]] double arm_sum_diag(const double* a, const double* detune,
                                  const double* delta_sq, double full,
                                  std::size_t len) noexcept;

/// With crosstalk: every ring j attenuates channel i,
///   power_i = a[i] * prod_j (1 - (full*delta_sq[j]) / (d_ij^2 + delta_sq[j]))
/// with d_ij = sep[i*sep_stride + j] + detune[j]; channels with a[i] == 0
/// are skipped (0 * T == 0), and the per-ring product runs sequentially
/// over j. Summed over i in index order.
[[nodiscard]] double arm_sum_xtalk(const double* a, const double* detune,
                                   const double* sep, std::size_t sep_stride,
                                   const double* delta_sq, double full,
                                   std::size_t len) noexcept;

/// The portable reference table (always available, never dispatched away).
[[nodiscard]] const KernelTable& scalar_table() noexcept;

/// The table selected for this process (CPUID probe + XL_DISABLE_SIMD env
/// override, resolved once on first use, thread-safe).
[[nodiscard]] const KernelTable& active_table() noexcept;

[[nodiscard]] Isa active_isa() noexcept;
[[nodiscard]] const char* active_isa_name() noexcept;

/// true when the AVX2 translation unit was compiled into this binary
/// (regardless of the runtime CPU probe or env override).
[[nodiscard]] bool simd_compiled() noexcept;

}  // namespace xl::numerics::kernels
