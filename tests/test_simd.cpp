// Packed real-FFT correctness and SIMD kernel equivalence.
//
// The rfft tests pin the packed transform (half-size complex FFT +
// untwiddle) against the full complex transform across odd/even/boundary
// sizes. The SIMD tests assert the contract simd.h documents: every kernel
// implementation buildable AND runnable on this host produces results
// BIT-IDENTICAL to the scalar reference — same fused multiply-adds, same
// lane structure, same reduction order — which is what lets the streaming
// chunking/thread-count invariants survive vectorization.
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/fft.h"
#include "dsp/simd.h"
#include "dsp/types.h"
#include "dsp/workspace.h"

namespace aqua::dsp {
namespace {

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> x(n);
  for (double& v : x) v = g(rng);
  return x;
}

std::vector<cplx> random_cplx(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<cplx> x(n);
  for (cplx& v : x) v = {g(rng), g(rng)};
  return x;
}

// Odd, even, power-of-two, Bluestein and boundary sizes.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 8, 15, 16, 17,
                              64, 129, 960, 961, 1024};

TEST(Rfft, RoundTripRecoversSignalAtEverySize) {
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = random_real(n, 100 + n);
    const std::vector<cplx> spec = rfft(x);
    ASSERT_EQ(spec.size(), n / 2 + 1) << "n " << n;
    const std::vector<double> back = irfft(spec, n);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], x[i], 1e-9) << "n " << n << " sample " << i;
    }
  }
}

TEST(Rfft, MatchesComplexTransformAtEverySize) {
  Workspace ws;
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = random_real(n, 200 + n);
    std::vector<cplx> cx(n);
    for (std::size_t i = 0; i < n; ++i) cx[i] = {x[i], 0.0};
    std::vector<cplx> full(n);
    plan_of(n).forward(cx, full, ws);

    const RfftPlan& plan = rplan_of(n);
    std::vector<cplx> packed(plan.spectrum_size());
    plan.forward(x, packed, ws);
    for (std::size_t k = 0; k < packed.size(); ++k) {
      EXPECT_NEAR(std::abs(packed[k] - full[k]), 0.0, 1e-9 * (1.0 + std::abs(full[k])))
          << "n " << n << " bin " << k;
    }
    // fft_real must agree on the mirrored upper half too.
    const std::vector<cplx> mirrored = fft_real(x);
    ASSERT_EQ(mirrored.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(mirrored[k] - full[k]), 0.0,
                  1e-9 * (1.0 + std::abs(full[k])))
          << "n " << n << " bin " << k;
    }
  }
}

TEST(Rfft, InverseMatchesComplexInverseOnHermitianSpectra) {
  Workspace ws;
  for (const std::size_t n : kSizes) {
    // Build a genuinely Hermitian spectrum from a random real signal.
    const std::vector<double> x = random_real(n, 300 + n);
    std::vector<cplx> spec = rfft(x);
    // Perturb it (still Hermitian: bins 0 and n/2 stay real).
    for (std::size_t k = 0; k < spec.size(); ++k) {
      spec[k] *= 1.0 + 0.25 * static_cast<double>(k % 3);
    }
    if (n % 2 == 0) spec[n / 2] = {spec[n / 2].real(), 0.0};
    spec[0] = {spec[0].real(), 0.0};

    std::vector<cplx> full(n);
    full[0] = spec[0];
    for (std::size_t k = 1; k <= n / 2; ++k) {
      full[k] = spec[k];
      full[n - k] = std::conj(spec[k]);
    }
    std::vector<cplx> time(n);
    plan_of(n).inverse(full, time, ws);

    const std::vector<double> packed = irfft(spec, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(packed[i], time[i].real(), 1e-9 * (1.0 + std::abs(time[i])))
          << "n " << n << " sample " << i;
    }
  }
}

TEST(Rfft, IfftRealDropsImaginaryEdgeResidue) {
  // design_from_magnitude's linear-phase construction leaves a purely
  // imaginary Nyquist bin; the legacy real(full-inverse) contract silently
  // dropped it (and any DC imaginary residue), and the packed reroute must
  // keep doing so — a leak shows up as a constant offset on every tap.
  Workspace ws;
  for (const std::size_t n : {std::size_t{8}, std::size_t{512}}) {
    std::mt19937_64 rng(1000 + n);
    std::normal_distribution<double> g(0.0, 1.0);
    std::vector<cplx> spec(n, cplx{0.0, 0.0});
    for (std::size_t k = 1; k < n / 2; ++k) {
      spec[k] = {g(rng), g(rng)};
      spec[n - k] = std::conj(spec[k]);
    }
    spec[0] = {1.25, 0.7};      // imaginary DC residue
    spec[n / 2] = {0.0, 3.0};   // purely imaginary Nyquist bin
    std::vector<cplx> time(n);
    plan_of(n).inverse(spec, time, ws);
    const std::vector<double> got = ifft_real(spec);
    ASSERT_EQ(got.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], time[i].real(), 1e-12) << "n " << n << " tap " << i;
    }
  }
}

TEST(Rfft, RejectsBadSizes) {
  EXPECT_THROW(RfftPlan(0), std::invalid_argument);
  Workspace ws;
  const RfftPlan& plan = rplan_of(16);
  std::vector<double> x(16), x_short(15);
  std::vector<cplx> spec(9), spec_short(8);
  EXPECT_THROW(plan.forward(x_short, spec, ws), std::invalid_argument);
  EXPECT_THROW(plan.forward(x, spec_short, ws), std::invalid_argument);
  EXPECT_THROW(plan.inverse(spec_short, x, ws), std::invalid_argument);
  EXPECT_THROW(plan.inverse(spec, x_short, ws), std::invalid_argument);
}

// --- SIMD kernel equivalence across every runnable dispatch target. ------

std::vector<const simd::Kernels*> runnable_targets() {
  std::vector<const simd::Kernels*> out;
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (const simd::Kernels* k = simd::kernels_for(isa)) out.push_back(k);
  }
  return out;
}

std::vector<float> random_realf(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> g(0.0f, 1.0f);
  std::vector<float> x(n);
  for (float& v : x) v = g(rng);
  return x;
}

std::vector<cplxf> random_cplxf(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> g(0.0f, 1.0f);
  std::vector<cplxf> x(n);
  for (cplxf& v : x) v = {g(rng), g(rng)};
  return x;
}

// Sizes around the lane-structure boundaries (4 double / 8 float lanes).
const std::size_t kKernelSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                    15, 16, 17, 61, 128, 1001};

TEST(Simd, ActiveTableIsRunnable) {
  const simd::Kernels& k = simd::active();
  EXPECT_NE(k.name, nullptr);
  EXPECT_NE(k.dot, nullptr);
  EXPECT_NE(k.cmul_inplace, nullptr);
  EXPECT_NE(k.sdft_update, nullptr);
  EXPECT_NE(k.fft_stages, nullptr);
  EXPECT_NE(k.dot_f, nullptr);
  EXPECT_NE(k.cmul_inplace_f, nullptr);
  EXPECT_NE(k.sdft_update_f, nullptr);
  EXPECT_NE(k.fft_stages_f, nullptr);
  // The scalar table must always be reachable.
  ASSERT_NE(simd::kernels_for(simd::Isa::kScalar), nullptr);
}

// Auto-detection prefers AVX2, then NEON, then scalar: the widest target
// that is compiled in and runnable on this CPU.
TEST(Simd, AutoDetectPicksWidestRunnable) {
  if (std::getenv("AQUA_SIMD") != nullptr) {
    GTEST_SKIP() << "AQUA_SIMD overrides auto-detection";
  }
  const simd::Kernels* want = simd::kernels_for(simd::Isa::kAvx2);
  if (want == nullptr) want = simd::kernels_for(simd::Isa::kNeon);
  if (want == nullptr) want = simd::kernels_for(simd::Isa::kScalar);
  EXPECT_EQ(&simd::active(), want) << "active target: "
                                   << simd::active().name;
}

TEST(Simd, DotBitIdenticalAcrossTargetsAndCorrect) {
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : kKernelSizes) {
    const std::vector<double> a = random_real(n, 400 + n);
    const std::vector<double> b = random_real(n, 500 + n);
    const double ref = scalar->dot(a.data(), b.data(), n);
    // Plain-loop cross-check (tolerance: different summation order).
    double naive = 0.0;
    for (std::size_t i = 0; i < n; ++i) naive += a[i] * b[i];
    EXPECT_NEAR(ref, naive, 1e-12 * (1.0 + std::abs(naive) +
                                     static_cast<double>(n)));
    for (const simd::Kernels* k : runnable_targets()) {
      const double got = k->dot(a.data(), b.data(), n);
      EXPECT_EQ(got, ref) << k->name << " n " << n;
    }
  }
}

TEST(Simd, CmulBitIdenticalAcrossTargetsAndCorrect) {
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : kKernelSizes) {
    const std::vector<cplx> y0 = random_cplx(n, 600 + n);
    const std::vector<cplx> x = random_cplx(n, 700 + n);
    std::vector<cplx> ref = y0;
    scalar->cmul_inplace(ref.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // Same value as the std::complex product, up to fma rounding.
      const cplx expect = y0[i] * x[i];
      EXPECT_NEAR(std::abs(ref[i] - expect), 0.0,
                  1e-12 * (1.0 + std::abs(expect)))
          << "element " << i;
    }
    for (const simd::Kernels* k : runnable_targets()) {
      std::vector<cplx> got = y0;
      k->cmul_inplace(got.data(), x.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i].real(), ref[i].real()) << k->name << " element " << i;
        EXPECT_EQ(got[i].imag(), ref[i].imag()) << k->name << " element " << i;
      }
    }
  }
}

// Row-update lengths: the bin counts {1, 3, 7, 8, 60, 61} and the
// [re | im] lengths (twice those) moving_dft_power passes, so every vector
// tail (mod 2, 4 and 8) runs on every target.
const std::size_t kSdftLengths[] = {1, 3, 7, 8, 60, 61, 2, 6, 14, 16, 120, 122};

// The row kernel, five updates deep with fresh rows each time, against the
// scalar reference bit for bit and a plain multiply-add within rounding.
template <typename T>
void check_sdft_update(
    std::vector<T> (*random)(std::size_t, std::uint64_t),
    void (*kernel)(const simd::Kernels&, T*, const T*, T, std::size_t),
    T tol) {
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : kSdftLengths) {
    const std::vector<T> acc0 = random(n, 800 + n);
    std::vector<std::vector<T>> rows;
    for (int iter = 0; iter < 5; ++iter) rows.push_back(random(n, 900 + n + iter));
    const T d = T(0.8371);
    std::vector<T> ref = acc0, naive = acc0;
    for (const std::vector<T>& row : rows) {
      kernel(*scalar, ref.data(), row.data(), d, n);
      for (std::size_t i = 0; i < n; ++i) naive[i] += d * row[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(ref[i], naive[i], tol * (T(1) + std::abs(naive[i])));
    }
    for (const simd::Kernels* k : runnable_targets()) {
      std::vector<T> got = acc0;
      for (const std::vector<T>& row : rows) {
        kernel(*k, got.data(), row.data(), d, n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], ref[i]) << k->name << " n " << n << " i " << i;
      }
    }
  }
}

TEST(Simd, SdftUpdateBitIdenticalAcrossTargetsAndCorrect) {
  check_sdft_update<double>(
      random_real,
      [](const simd::Kernels& k, double* acc, const double* row, double d,
         std::size_t n) { k.sdft_update(acc, row, d, n); },
      1e-12);
}

// The whole-transform kernel's contract, evaluated stage by stage and
// block by block straight from the documented tree: v = b*w (historical
// std::complex product, unfused), a' = a + v, b' = a - v, with stage
// `half` reading tw[half - 1 + i].
template <typename T>
std::vector<std::complex<T>> reference_stages(
    std::vector<std::complex<T>> x, const std::vector<std::complex<T>>& tw,
    bool conj_w) {
  for (std::size_t half = 1; half < x.size(); half *= 2) {
    for (std::size_t start = 0; start < x.size(); start += 2 * half) {
      for (std::size_t i = 0; i < half; ++i) {
        const std::complex<T> w = tw[half - 1 + i];
        const std::complex<T> wi = conj_w ? std::conj(w) : w;
        const std::complex<T> a = x[start + i];
        const std::complex<T> b = x[start + half + i];
        const std::complex<T> v(b.real() * wi.real() - b.imag() * wi.imag(),
                                b.real() * wi.imag() + b.imag() * wi.real());
        x[start + i] = a + v;
        x[start + half + i] = a - v;
      }
    }
  }
  return x;
}

// Data for the whole-transform check: the random signal as is, with NaN,
// +Inf and -Inf planted, scaled into the subnormal range, or all zeros.
template <typename C>
std::vector<C> hostile_fill(std::vector<C> x, int fill) {
  using T = typename C::value_type;
  if (fill == 1 && x.size() > 2) {
    x[x.size() / 3] = {std::numeric_limits<T>::quiet_NaN(), T(1)};
    x[x.size() / 2] = {std::numeric_limits<T>::infinity(), T(0)};
    x[x.size() - 1] = {T(0), -std::numeric_limits<T>::infinity()};
  } else if (fill == 2) {
    const T tiny = std::numeric_limits<T>::denorm_min() * T(64);
    for (C& v : x) v *= tiny;
  } else if (fill == 3) {
    for (C& v : x) v = C{};
  }
  return x;
}

// Equal bits, or NaN in both: which NaN an operation propagates depends on
// operand order, which the compiler may swap in commutative operations.
template <typename T>
bool same_value(T a, T b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::memcmp(&a, &b, sizeof(T)) == 0;
}

// Every power-of-two size m = 1 ... 32768: m < 8 takes the vector
// targets' small-transform tails, m = 8 ... 2048 runs one cache block
// with an odd or even number of fused stage pairs, and the larger sizes
// add the full-array stages above the block (double blocks are half as
// many points as float blocks, so both split points are crossed). The
// twiddles are random, not the plan's, so no stage can pass by reading
// another stage's factors. The data is random, NaN/Inf-bearing,
// subnormal or zero. Results must be EXACT — the double FFT's outputs are
// pinned to the scalar era through this tree.
template <typename T, typename Gen, typename Run>
void check_fft_stages(Gen gen, Run run, std::uint64_t seed) {
  for (std::size_t m = 1; m <= 32768; m *= 2) {
    const auto tw = gen(m > 1 ? m - 1 : 1, seed + 7 * m);
    for (int fill = 0; fill < 4; ++fill) {
      const auto x0 = hostile_fill(gen(m, seed + m), fill);
      for (const bool conj_w : {false, true}) {
        const auto want = reference_stages<T>(x0, tw, conj_w);
        for (const simd::Kernels* k : runnable_targets()) {
          auto got = x0;
          run(*k, got.data(), tw.data(), m, conj_w);
          for (std::size_t i = 0; i < m; ++i) {
            ASSERT_TRUE(same_value(got[i].real(), want[i].real()) &&
                        same_value(got[i].imag(), want[i].imag()))
                << k->name << " m " << m << " fill " << fill << " conj "
                << conj_w << " elem " << i << ": " << got[i] << " vs "
                << want[i];
          }
        }
      }
    }
  }
}

TEST(Simd, ButterflyBitIdenticalAcrossTargetsAndCorrect) {
  check_fft_stages<double>(
      random_cplx,
      [](const simd::Kernels& k, cplx* x, const cplx* tw, std::size_t m,
         bool conj_w) { k.fft_stages(x, tw, m, conj_w); },
      1100);
}

// --- Single-precision kernel twins: same contracts at 2x the lanes. ------

TEST(Simd, DotFloatBitIdenticalAcrossTargetsAndCorrect) {
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : kKernelSizes) {
    const std::vector<float> a = random_realf(n, 1400 + n);
    const std::vector<float> b = random_realf(n, 1500 + n);
    const float ref = scalar->dot_f(a.data(), b.data(), n);
    // Double-accumulated cross-check (tolerance: fp32 summation error).
    double naive = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      naive += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    EXPECT_NEAR(static_cast<double>(ref), naive,
                1e-4 * (1.0 + std::abs(naive) + static_cast<double>(n)));
    for (const simd::Kernels* k : runnable_targets()) {
      const float got = k->dot_f(a.data(), b.data(), n);
      EXPECT_EQ(got, ref) << k->name << " n " << n;
    }
  }
}

TEST(Simd, CmulFloatBitIdenticalAcrossTargetsAndCorrect) {
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : kKernelSizes) {
    const std::vector<cplxf> y0 = random_cplxf(n, 1600 + n);
    const std::vector<cplxf> x = random_cplxf(n, 1700 + n);
    std::vector<cplxf> ref = y0;
    scalar->cmul_inplace_f(ref.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const cplxf expect = y0[i] * x[i];
      EXPECT_NEAR(std::abs(ref[i] - expect), 0.0f,
                  1e-4f * (1.0f + std::abs(expect)))
          << "element " << i;
    }
    for (const simd::Kernels* k : runnable_targets()) {
      std::vector<cplxf> got = y0;
      k->cmul_inplace_f(got.data(), x.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i].real(), ref[i].real()) << k->name << " element " << i;
        EXPECT_EQ(got[i].imag(), ref[i].imag()) << k->name << " element " << i;
      }
    }
  }
}

TEST(Simd, SdftUpdateFloatBitIdenticalAcrossTargetsAndCorrect) {
  check_sdft_update<float>(
      random_realf,
      [](const simd::Kernels& k, float* acc, const float* row, float d,
         std::size_t n) { k.sdft_update_f(acc, row, d, n); },
      1e-5f);
}

TEST(Simd, ButterflyFloatBitIdenticalAcrossTargetsAndCorrect) {
  check_fft_stages<float>(
      random_cplxf,
      [](const simd::Kernels& k, cplxf* x, const cplxf* tw, std::size_t m,
         bool conj_w) { k.fft_stages_f(x, tw, m, conj_w); },
      2100);
}

}  // namespace
}  // namespace aqua::dsp
