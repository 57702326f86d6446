// AVX2+FMA kernel table.
//
// This is the only translation unit compiled with -mavx2 -mfma (and
// -ffp-contract=off, see below); nothing here runs unless kernels.cpp's
// resolve() has confirmed CPU support at runtime, so the rest of the binary
// stays baseline-ISA clean.
//
// Bit-identity with the scalar table is preserved by construction:
//   * lanes map to independent outputs (GEMM columns, VDP channels, RNG
//     samples) — no reduction is ever split across lanes;
//   * every lane executes the same mul/add/div/sub sequence as the scalar
//     reference. -ffp-contract=off is load-bearing: without it GCC fuses
//     _mm256_mul_pd + _mm256_add_pd into one-rounding FMA, which would break
//     the two-rounding scalar contract;
//   * cross-lane sums are extracted and accumulated in scalar index order;
//   * vsqrtpd and the u64->double conversion are exact; log/cos route
//     through the scalar libm calls, one lane at a time.
#include "numerics/kernels.hpp"

#if defined(XL_KERNELS_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "numerics/rng.hpp"  // scalar hash_gaussian/hash_combine for tails

namespace xl::numerics::kernels {
namespace {

// --- GEMM ------------------------------------------------------------------

/// One 4-column packed panel: lane j accumulates column 4p+j sequentially
/// over i (add chain per lane, two roundings per element).
inline __m256d panel_accumulate(const double* a, const double* panel,
                                std::size_t k) {
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < k; ++i) {
    const __m256d ai = _mm256_broadcast_sd(a + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(ai, _mm256_loadu_pd(panel + i * 4)));
  }
  return acc;
}

void gemm_row_panels_avx2(const double* a, const double* pack, std::size_t k,
                          std::size_t n_panels, double* out) {
  // Four panels (16 output columns) per pass: four independent add chains
  // hide the vaddpd latency; each chain is still strictly sequential over i.
  std::size_t p = 0;
  for (; p + 4 <= n_panels; p += 4) {
    const double* p0 = pack + (p + 0) * 4 * k;
    const double* p1 = pack + (p + 1) * 4 * k;
    const double* p2 = pack + (p + 2) * 4 * k;
    const double* p3 = pack + (p + 3) * 4 * k;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < k; ++i) {
      const __m256d ai = _mm256_broadcast_sd(a + i);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(ai, _mm256_loadu_pd(p0 + i * 4)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(ai, _mm256_loadu_pd(p1 + i * 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(ai, _mm256_loadu_pd(p2 + i * 4)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(ai, _mm256_loadu_pd(p3 + i * 4)));
    }
    _mm256_storeu_pd(out + (p + 0) * 4, a0);
    _mm256_storeu_pd(out + (p + 1) * 4, a1);
    _mm256_storeu_pd(out + (p + 2) * 4, a2);
    _mm256_storeu_pd(out + (p + 3) * 4, a3);
  }
  for (; p < n_panels; ++p) {
    _mm256_storeu_pd(out + p * 4, panel_accumulate(a, pack + p * 4 * k, k));
  }
}

// --- Lorentzian arm sums ---------------------------------------------------

void store4(double* buf, __m256d v) { _mm256_storeu_pd(buf, v); }

double arm_pair_diag_tbl_avx2(const double* a, const unsigned char* sel,
                              const double* carry, const double* idle,
                              std::size_t len) {
  double pos = 0.0;
  double neg = 0.0;
  double bufp[4];
  double bufn[4];
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    // Selects are resolved in scalar code; the lane arithmetic is the single
    // mul the scalar loop performs on the identical table values.
    const __m256d tp = _mm256_set_pd(sel[i + 3] ? idle[i + 3] : carry[i + 3],
                                     sel[i + 2] ? idle[i + 2] : carry[i + 2],
                                     sel[i + 1] ? idle[i + 1] : carry[i + 1],
                                     sel[i + 0] ? idle[i + 0] : carry[i + 0]);
    const __m256d tn = _mm256_set_pd(sel[i + 3] ? carry[i + 3] : idle[i + 3],
                                     sel[i + 2] ? carry[i + 2] : idle[i + 2],
                                     sel[i + 1] ? carry[i + 1] : idle[i + 1],
                                     sel[i + 0] ? carry[i + 0] : idle[i + 0]);
    const __m256d av = _mm256_loadu_pd(a + i);
    store4(bufp, _mm256_mul_pd(av, tp));
    store4(bufn, _mm256_mul_pd(av, tn));
    pos += bufp[0];
    pos += bufp[1];
    pos += bufp[2];
    pos += bufp[3];
    neg += bufn[0];
    neg += bufn[1];
    neg += bufn[2];
    neg += bufn[3];
  }
  for (; i < len; ++i) {
    pos += a[i] * (sel[i] ? idle[i] : carry[i]);
    neg += a[i] * (sel[i] ? carry[i] : idle[i]);
  }
  return pos - neg;
}

double arm_pair_xtalk_tbl_avx2(const double* a, const unsigned char* sel,
                               const double* carry, const double* idle,
                               std::size_t len) {
  double pos = 0.0;
  double neg = 0.0;
  double bufp[4];
  double bufn[4];
  std::size_t i0 = 0;
  for (; i0 + 4 <= len; i0 += 4) {
    // Lanes = 4 channels; ring j's column-major table slice t[j*len + i0..]
    // is a contiguous 4-lane load, sel[j] is lane-uniform, and both arm
    // products share the loads.
    __m256d pp = _mm256_loadu_pd(a + i0);
    __m256d pn = pp;
    for (std::size_t j = 0; j < len; ++j) {
      const __m256d c = _mm256_loadu_pd(carry + j * len + i0);
      const __m256d d = _mm256_loadu_pd(idle + j * len + i0);
      if (sel[j]) {
        pp = _mm256_mul_pd(pp, d);
        pn = _mm256_mul_pd(pn, c);
      } else {
        pp = _mm256_mul_pd(pp, c);
        pn = _mm256_mul_pd(pn, d);
      }
    }
    store4(bufp, pp);
    store4(bufn, pn);
    // Scalar index order, honoring the a[i] == 0 skip (the lane computed a
    // harmless all-zero product; transmissions are finite so 0 * T == 0).
    for (std::size_t lane = 0; lane < 4; ++lane) {
      if (a[i0 + lane] != 0.0) {
        pos += bufp[lane];
        neg += bufn[lane];
      }
    }
  }
  for (; i0 < len; ++i0) {
    double pp = a[i0];
    if (pp == 0.0) continue;
    double pn = pp;
    for (std::size_t j = 0; j < len; ++j) {
      const double c = carry[j * len + i0];
      const double d = idle[j * len + i0];
      pp *= sel[j] ? d : c;
      pn *= sel[j] ? c : d;
    }
    pos += pp;
    neg += pn;
  }
  return pos - neg;
}

// --- counter-keyed gaussian sampler ----------------------------------------

// 64-bit lane arithmetic AVX2 lacks natively: a*b mod 2^64 from 32x32->64
// partial products.
inline __m256i mullo64(__m256i x, __m256i y) {
  const __m256i x_hi = _mm256_srli_epi64(x, 32);
  const __m256i y_hi = _mm256_srli_epi64(y, 32);
  const __m256i lo = _mm256_mul_epu32(x, y);            // x_lo * y_lo (full 64)
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(x_hi, y),
                                         _mm256_mul_epu32(x, y_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

inline __m256i splitmix64_v(__m256i x) {
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(0x9E3779B97F4A7C15ULL));
  x = mullo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
              _mm256_set1_epi64x(0xBF58476D1CE4E5B9ULL));
  x = mullo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
              _mm256_set1_epi64x(0x94D049BB133111EBULL));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

inline __m256i hash_combine_v(__m256i h, __m256i v) {
  __m256i t = _mm256_add_epi64(v, _mm256_set1_epi64x(0x9E3779B97F4A7C15ULL));
  t = _mm256_add_epi64(t, _mm256_slli_epi64(h, 6));
  t = _mm256_add_epi64(t, _mm256_srli_epi64(h, 2));
  return splitmix64_v(_mm256_xor_si256(h, t));
}

/// Exact u64 -> double for values < 2^53 (the >> 11 mantissae): split into
/// 32-bit halves, convert each exactly via the 2^52 bias trick, recombine —
/// every step is exact, so the result equals the scalar static_cast.
inline __m256d u64_small_to_pd(__m256i v) {
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256i lo = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFFFFFFLL));
  const __m256i hi = _mm256_srli_epi64(v, 32);
  const __m256d dlo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(lo, _mm256_castpd_si256(two52))), two52);
  const __m256d dhi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(hi, _mm256_castpd_si256(two52))), two52);
  return _mm256_add_pd(_mm256_mul_pd(dhi, _mm256_set1_pd(0x1.0p32)), dlo);
}

/// hash_unit over 4 lanes: top-53-bit mantissa scaled by 2^-53 (exact).
inline __m256d hash_unit_v(__m256i key) {
  const __m256i mant = _mm256_srli_epi64(splitmix64_v(key), 11);
  return _mm256_mul_pd(u64_small_to_pd(mant), _mm256_set1_pd(0x1.0p-53));
}

/// Box-Muller over 4 keyed lanes; must match numerics::hash_gaussian bit for
/// bit (kTau literal identical to rng.cpp's).
inline void gaussian4(__m256i keys, double* out) {
  constexpr double kTau = 6.283185307179586476925286766559;
  const __m256d u1 = hash_unit_v(hash_combine_v(keys, _mm256_set1_epi64x(1)));
  const __m256d u2 = hash_unit_v(hash_combine_v(keys, _mm256_set1_epi64x(2)));
  double lbuf[4];
  store4(lbuf, _mm256_sub_pd(_mm256_set1_pd(1.0), u1));
  for (double& l : lbuf) l = std::log(l);  // scalar libm, one lane at a time
  const __m256d r = _mm256_sqrt_pd(
      _mm256_mul_pd(_mm256_set1_pd(-2.0), _mm256_loadu_pd(lbuf)));
  double cbuf[4];
  store4(cbuf, _mm256_mul_pd(_mm256_set1_pd(kTau), u2));
  for (double& c : cbuf) c = std::cos(c);
  _mm256_storeu_pd(out, _mm256_mul_pd(r, _mm256_loadu_pd(cbuf)));
}

void hash_gaussian_keys_avx2(const std::uint64_t* keys, std::size_t n,
                             double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    gaussian4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)),
              out + i);
  }
  for (; i < n; ++i) out[i] = hash_gaussian(keys[i]);
}

void hash_gaussian_n_avx2(std::uint64_t key, std::uint64_t base_counter,
                          std::size_t n, double* out) {
  const __m256i keyv = _mm256_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t c = base_counter + i;  // wraps mod 2^64, as scalar
    const __m256i ctr = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(c)),
        _mm256_set_epi64x(3, 2, 1, 0));
    gaussian4(hash_combine_v(keyv, ctr), out + i);
  }
  for (; i < n; ++i) {
    out[i] = hash_gaussian(
        hash_combine(key, base_counter + static_cast<std::uint64_t>(i)));
  }
}

constexpr KernelTable kAvx2Table = {
    gemm_row_panels_avx2, arm_pair_diag_tbl_avx2,
    arm_pair_xtalk_tbl_avx2, hash_gaussian_keys_avx2,
    hash_gaussian_n_avx2, "avx2",
};

}  // namespace

namespace detail {
const KernelTable& avx2_table() noexcept { return kAvx2Table; }
}  // namespace detail

}  // namespace xl::numerics::kernels

#endif  // XL_KERNELS_AVX2
