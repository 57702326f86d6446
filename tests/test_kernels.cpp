// SIMD kernel-layer tests: the dispatched table must reproduce the scalar
// reference bit for bit (EXPECT_EQ, 0 ulp — see the contract in
// numerics/kernels.hpp), across randomized shapes covering every alignment
// of the problem size against the SIMD width. On hardware without AVX2 (or
// under XL_DISABLE_SIMD=1) active == scalar and the parity checks are
// trivially green; the matmul/vdp_dot reference checks still bite.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "numerics/gemm.hpp"
#include "numerics/kernels.hpp"
#include "numerics/matrix.hpp"
#include "numerics/rng.hpp"
#include "photonics/bank_lut.hpp"
#include "photonics/wdm.hpp"

namespace xl::numerics::kernels {
namespace {

std::vector<double> random_vec(Rng& rng, std::size_t n, double lo, double hi,
                               double zero_fraction = 0.0) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.bernoulli(zero_fraction) ? 0.0 : rng.uniform(lo, hi);
  }
  return v;
}

TEST(KernelDispatch, TablesAreWellFormed) {
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  EXPECT_STREQ(s.name, "scalar");
  EXPECT_TRUE(a.name == std::string("scalar") || a.name == std::string("avx2"));
  EXPECT_STREQ(active_isa_name(), a.name);
  EXPECT_EQ(active_isa() == Isa::kScalar, &a == &s);
  if (!simd_compiled()) {
    EXPECT_EQ(active_isa(), Isa::kScalar);
  }
  // Make the exercised path visible in test logs.
  std::printf("[kernels] active table: %s (simd_compiled=%d)\n", a.name,
              simd_compiled() ? 1 : 0);
}

TEST(KernelParity, GemmRowPanels) {
  Rng rng(101);
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{8}, std::size_t{33}, std::size_t{129}}) {
    for (const std::size_t panels :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{5}, std::size_t{9}, std::size_t{16}}) {
      const auto av = random_vec(rng, k, -2.0, 2.0);
      const auto pack = random_vec(rng, panels * 4 * k, -2.0, 2.0);
      std::vector<double> out_s(panels * 4, -1.0);
      std::vector<double> out_a(panels * 4, +1.0);
      s.gemm_row_panels(av.data(), pack.data(), k, panels, out_s.data());
      a.gemm_row_panels(av.data(), pack.data(), k, panels, out_a.data());
      for (std::size_t i = 0; i < out_s.size(); ++i) {
        EXPECT_EQ(out_s[i], out_a[i]) << "k=" << k << " panels=" << panels
                                      << " i=" << i;
      }
    }
  }
}

// Transmission at detuning d for ring j's linewidth, the exact expression
// the fused table kernels consume (photonics::MrBankTransferLut builds its
// tables with the same one).
double lorentzian_t(double d, double delta_sq, double full) {
  return 1.0 - full * delta_sq / (d * d + delta_sq);
}

TEST(KernelParity, ArmPairDiagTbl) {
  Rng rng(909);
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (std::size_t len = 0; len <= 35; ++len) {
    const auto av = random_vec(rng, len, 0.0, 1.0, 0.2);
    const auto carry = random_vec(rng, len, 0.2, 1.0);
    const auto idle = random_vec(rng, len, 0.2, 1.0);
    std::vector<unsigned char> sel(len);
    for (auto& sb : sel) sb = rng.bernoulli(0.5) ? 1 : 0;
    EXPECT_EQ(
        s.arm_pair_diag_tbl(av.data(), sel.data(), carry.data(), idle.data(), len),
        a.arm_pair_diag_tbl(av.data(), sel.data(), carry.data(), idle.data(), len))
        << "len=" << len;
  }
}

TEST(KernelParity, ArmPairXtalkTbl) {
  Rng rng(1010);
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (std::size_t len = 0; len <= 23; ++len) {
    const auto av = random_vec(rng, len, 0.0, 1.0, 0.25);
    const auto carry = random_vec(rng, len * len, 0.2, 1.0);
    const auto idle = random_vec(rng, len * len, 0.2, 1.0);
    std::vector<unsigned char> sel(len);
    for (auto& sb : sel) sb = rng.bernoulli(0.5) ? 1 : 0;
    EXPECT_EQ(s.arm_pair_xtalk_tbl(av.data(), sel.data(), carry.data(),
                                   idle.data(), len),
              a.arm_pair_xtalk_tbl(av.data(), sel.data(), carry.data(),
                                   idle.data(), len))
        << "len=" << len;
  }
}

// The fused pair kernels must equal the two arm_sum calls they replace when
// the tables hold the Lorentzian transmissions the arm sums would compute:
// carry = ring at its imprint detuning, idle = ring parked on resonance, and
// sel routes each ring's carry value to the arm the folded sign puts it on.
TEST(KernelParity, ArmPairDiagTblMatchesArmSumDifference) {
  Rng rng(1111);
  const KernelTable& s = scalar_table();
  const double full = 0.968;
  for (std::size_t len = 1; len <= 19; ++len) {
    const auto av = random_vec(rng, len, 0.0, 1.0, 0.2);
    const auto det_carry = random_vec(rng, len, 0.0, 0.2);
    const auto det_idle = random_vec(rng, len, -0.05, 0.05);
    const auto dsq = random_vec(rng, len, 1e-4, 2e-2);
    std::vector<unsigned char> sel(len);
    for (auto& sb : sel) sb = rng.bernoulli(0.5) ? 1 : 0;
    std::vector<double> carry(len);
    std::vector<double> idle(len);
    std::vector<double> dpos(len);
    std::vector<double> dneg(len);
    for (std::size_t i = 0; i < len; ++i) {
      carry[i] = lorentzian_t(det_carry[i], dsq[i], full);
      idle[i] = lorentzian_t(det_idle[i], dsq[i], full);
      dpos[i] = sel[i] ? det_idle[i] : det_carry[i];
      dneg[i] = sel[i] ? det_carry[i] : det_idle[i];
    }
    const double pair = s.arm_pair_diag_tbl(av.data(), sel.data(), carry.data(),
                                            idle.data(), len);
    const double two_arms =
        arm_sum_diag(av.data(), dpos.data(), dsq.data(), full, len) -
        arm_sum_diag(av.data(), dneg.data(), dsq.data(), full, len);
    EXPECT_EQ(pair, two_arms) << "len=" << len;
  }
}

TEST(KernelParity, ArmPairXtalkTblMatchesArmSumDifference) {
  Rng rng(1212);
  const KernelTable& s = scalar_table();
  const double full = 0.968;
  for (std::size_t len = 1; len <= 16; ++len) {
    const auto av = random_vec(rng, len, 0.0, 1.0, 0.25);
    const auto det_carry = random_vec(rng, len, 0.0, 0.2);
    const auto det_idle = random_vec(rng, len, -0.05, 0.05);
    const auto dsq = random_vec(rng, len, 1e-4, 2e-2);
    const auto sep = random_vec(rng, len * len, -3.0, 3.0);
    std::vector<unsigned char> sel(len);
    for (auto& sb : sel) sb = rng.bernoulli(0.5) ? 1 : 0;
    // Column-major tables, t[j * len + i]: channel i through ring j.
    std::vector<double> carry(len * len);
    std::vector<double> idle(len * len);
    std::vector<double> dpos(len);
    std::vector<double> dneg(len);
    for (std::size_t j = 0; j < len; ++j) {
      for (std::size_t i = 0; i < len; ++i) {
        const double sep_ij = sep[i * len + j];
        carry[j * len + i] = lorentzian_t(sep_ij + det_carry[j], dsq[j], full);
        idle[j * len + i] = lorentzian_t(sep_ij + det_idle[j], dsq[j], full);
      }
      dpos[j] = sel[j] ? det_idle[j] : det_carry[j];
      dneg[j] = sel[j] ? det_carry[j] : det_idle[j];
    }
    const double pair = s.arm_pair_xtalk_tbl(av.data(), sel.data(), carry.data(),
                                             idle.data(), len);
    const double two_arms = arm_sum_xtalk(av.data(), dpos.data(), sep.data(),
                                          len, dsq.data(), full, len) -
                            arm_sum_xtalk(av.data(), dneg.data(), sep.data(),
                                          len, dsq.data(), full, len);
    EXPECT_EQ(pair, two_arms) << "len=" << len;
  }
}

TEST(KernelParity, HashGaussianKeys) {
  Rng rng(505);
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                              std::size_t{7}, std::size_t{64}, std::size_t{251}}) {
    std::vector<std::uint64_t> keys(n);
    for (auto& kk : keys) {
      kk = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 62)) * 3u;
    }
    std::vector<double> out_s(n);
    std::vector<double> out_a(n);
    s.hash_gaussian_keys(keys.data(), n, out_s.data());
    a.hash_gaussian_keys(keys.data(), n, out_a.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out_s[i], out_a[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelParity, HashGaussianN) {
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{12345},
                                   ~std::uint64_t{0} - 2}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                std::size_t{6}, std::size_t{129}}) {
      std::vector<double> out_s(n);
      std::vector<double> out_a(n);
      s.hash_gaussian_n(0xFEEDFACE, base, n, out_s.data());
      a.hash_gaussian_n(0xFEEDFACE, base, n, out_a.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out_s[i], out_a[i]) << "base=" << base << " n=" << n
                                      << " i=" << i;
      }
    }
  }
}

// --- dispatched entry points vs naive references -----------------------------

TEST(KernelParity, MatmulTransposedMatchesNaiveAndIsTileInvariant) {
  Rng rng(606);
  for (const auto [m, n, k] :
       {std::array<std::size_t, 3>{1, 1, 1}, std::array<std::size_t, 3>{3, 5, 7},
        std::array<std::size_t, 3>{8, 16, 32},
        std::array<std::size_t, 3>{17, 23, 41},
        std::array<std::size_t, 3>{70, 33, 19}}) {
    Matrix a(m, k);
    Matrix b(n, k);
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t i = 0; i < k; ++i) a(r, i) = rng.uniform(-1.0, 1.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t i = 0; i < k; ++i) b(r, i) = rng.uniform(-1.0, 1.0);
    const Matrix c = matmul_transposed(a, b);
    // Naive reference: the historical scalar loop — strictly sequential
    // accumulation over k per output element. Must match bit for bit.
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t col = 0; col < n; ++col) {
        double acc = 0.0;
        for (std::size_t i = 0; i < k; ++i) acc += a(r, i) * b(col, i);
        EXPECT_EQ(c(r, col), acc) << "m=" << m << " n=" << n << " k=" << k
                                  << " r=" << r << " col=" << col;
      }
    }
    // Tiling must not affect a single bit either.
    for (const std::size_t tile : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
      const Matrix ct = matmul_transposed(a, b, tile);
      for (std::size_t r = 0; r < m; ++r)
        for (std::size_t col = 0; col < n; ++col)
          EXPECT_EQ(c(r, col), ct(r, col)) << "tile=" << tile;
    }
  }
}

// --- end-to-end vdp_dot vs an independent scalar re-derivation ---------------

class VdpDotParity : public ::testing::Test {
 protected:
  static constexpr std::size_t kBank = 8;
  static constexpr double kQ = 8000.0;
  static constexpr double kErDb = 15.0;
  static constexpr int kBits = 8;

  VdpDotParity() : grid_(kBank, 0.8), lut_(grid_, kQ, kErDb, kBits) {
    lambda_ = grid_.wavelengths();
    delta_sq_.resize(kBank);
    for (std::size_t j = 0; j < kBank; ++j) {
      const double delta = lambda_[j] / (2.0 * kQ);
      delta_sq_[j] = delta * delta;
    }
    full_ = 1.0 - lut_.min_transmission();
  }

  // The historical scalar arm_sum, re-derived from first principles (grid
  // wavelengths, Q, ER) rather than from the class internals.
  double ref_arm_sum(std::span<const double> a, std::span<const double> detune,
                     bool crosstalk) const {
    const std::size_t len = a.size();
    double sum = 0.0;
    if (crosstalk) {
      for (std::size_t i = 0; i < len; ++i) {
        double power = a[i];
        if (power == 0.0) continue;
        for (std::size_t j = 0; j < len; ++j) {
          const double d = (lambda_[i] - lambda_[j]) + detune[j];
          power *= 1.0 - full_ * delta_sq_[j] / (d * d + delta_sq_[j]);
        }
        sum += power;
      }
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        const double d = detune[i];
        sum += a[i] * (1.0 - full_ * delta_sq_[i] / (d * d + delta_sq_[i]));
      }
    }
    return sum;
  }

  // The historical single-pass vdp_dot (pre-kernel-layer), verbatim algorithm.
  double ref_vdp_dot(std::span<const double> a_mag,
                     std::span<const double> detune,
                     std::span<const unsigned char> neg, bool crosstalk,
                     const photonics::VdpEffects* effects) const {
    const double* drift = nullptr;
    double noise_std = 0.0;
    if (effects != nullptr && effects->active()) {
      if (!effects->ring_drift_nm.empty()) drift = effects->ring_drift_nm.data();
      noise_std = effects->noise_std;
    }
    const auto bits_of = [](double v) {
      std::uint64_t b;
      std::memcpy(&b, &v, sizeof(b));
      return b;
    };
    std::vector<double> dp(kBank);
    std::vector<double> dn(kBank);
    const std::size_t total = a_mag.size();
    double acc = 0.0;
    for (std::size_t start = 0; start < total; start += kBank) {
      const std::size_t len = std::min(kBank, total - start);
      for (std::size_t j = 0; j < len; ++j) {
        const double d = detune[start + j];
        const double dr = drift == nullptr ? 0.0 : drift[j];
        if (neg[start + j]) {
          dp[j] = drift == nullptr ? 0.0 : -dr;
          dn[j] = d - dr;
        } else {
          dp[j] = d - dr;
          dn[j] = drift == nullptr ? 0.0 : -dr;
        }
      }
      const auto am = a_mag.subspan(start, len);
      double partial = ref_arm_sum(am, {dp.data(), len}, crosstalk) -
                       ref_arm_sum(am, {dn.data(), len}, crosstalk);
      if (noise_std > 0.0) {
        std::uint64_t key =
            hash_combine(effects->noise_seed, static_cast<std::uint64_t>(start));
        for (std::size_t j = 0; j < len; ++j) {
          key = hash_combine(key, bits_of(a_mag[start + j]));
          key = hash_combine(
              key, bits_of(detune[start + j]) ^ (neg[start + j] ? ~0ULL : 0ULL));
        }
        partial += noise_std * std::sqrt(2.0 * static_cast<double>(len)) *
                   hash_gaussian(key);
      }
      const double norm = static_cast<double>(len);
      acc += (lut_.quantizer().quantize(std::abs(partial) / norm) * norm) *
             (partial < 0.0 ? -1.0 : 1.0);
    }
    return acc;
  }

  photonics::WavelengthGrid grid_;
  photonics::MrBankTransferLut lut_;
  std::vector<double> lambda_;
  std::vector<double> delta_sq_;
  double full_ = 0.0;
};

TEST_F(VdpDotParity, MatchesReferenceAcrossEffectCombinations) {
  Rng rng(808);
  photonics::VdpScratch scratch;
  std::vector<double> drift(kBank);
  for (double& d : drift) d = rng.uniform(-0.02, 0.02);
  // total = 21: two full chunks + a ragged 5-element tail.
  const std::size_t total = 21;
  for (int rep = 0; rep < 4; ++rep) {
    std::vector<double> a_mag = random_vec(rng, total, 0.0, 1.0, 0.15);
    std::vector<double> detune = random_vec(rng, total, 0.0, 0.15);
    std::vector<unsigned char> neg(total);
    for (auto& nb : neg) nb = rng.bernoulli(0.5) ? 1 : 0;
    for (const bool crosstalk : {false, true}) {
      for (const bool with_drift : {false, true}) {
        for (const double noise_std : {0.0, 0.05}) {
          photonics::VdpEffects fx;
          if (with_drift) fx.ring_drift_nm = drift;
          fx.noise_std = noise_std;
          fx.noise_seed = 0xC0FFEE;
          const photonics::VdpEffects* fxp =
              (with_drift || noise_std > 0.0) ? &fx : nullptr;
          const double got =
              lut_.vdp_dot(a_mag, detune, neg, crosstalk, scratch, fxp);
          const double want = ref_vdp_dot(a_mag, detune, neg, crosstalk, fxp);
          EXPECT_EQ(got, want)
              << "rep=" << rep << " xtalk=" << crosstalk
              << " drift=" << with_drift << " noise=" << noise_std;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xl::numerics::kernels
