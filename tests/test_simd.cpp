// Packed real-FFT correctness and SIMD kernel equivalence.
//
// The rfft tests pin the packed transform (half-size complex FFT +
// untwiddle) against the full complex transform across odd/even/boundary
// sizes. The SIMD tests assert the contract simd.h documents: every kernel
// implementation buildable AND runnable on this host produces results
// BIT-IDENTICAL to the scalar reference — same fused multiply-adds, same
// lane structure, same reduction order — which is what lets the streaming
// chunking/thread-count invariants survive vectorization.
#include <algorithm>
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
  EXPECT_NE(k.segment_dots, nullptr);
  EXPECT_NE(k.sdft_run, nullptr);
  EXPECT_NE(k.fft_stages, nullptr);
  EXPECT_NE(k.rfft_untwiddle, nullptr);
  EXPECT_NE(k.irfft_untwiddle, nullptr);
  EXPECT_NE(k.dot_f, nullptr);
  EXPECT_NE(k.cmul_inplace_f, nullptr);
  EXPECT_NE(k.segment_dots_f, nullptr);
  EXPECT_NE(k.sdft_run_f, nullptr);
  EXPECT_NE(k.fft_stages_f, nullptr);
  EXPECT_NE(k.rfft_untwiddle_f, nullptr);
  EXPECT_NE(k.irfft_untwiddle_f, nullptr);
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

// Moving-DFT bin counts around the block width (4 double / 8 float bins)
// and the paper's 60, with run lengths around the kernels' 32-update slabs.
const std::size_t kSdftBins[] = {1, 3, 4, 7, 8, 9, 60, 61};
const std::size_t kSdftLens[] = {0, 1, 5, 31, 32, 33, 100};

// The run kernel against the per-sample form it replaced: before update t,
// write the power rows due after t updates; then one fused axpy
// acc[i] = fma(d, row[i], acc[i]) over the whole blocked row. Every
// target's sums and power rows must match bit for bit, and no write may
// land past a row's `bins` values.
template <typename T>
void check_sdft_run(std::vector<T> (*random)(std::size_t, std::uint64_t),
                    void (*kernel)(const simd::Kernels&, T*, const T*,
                                   std::size_t, const T*, std::size_t,
                                   std::size_t, const simd::SdftEmit<T>*,
                                   std::size_t)) {
  constexpr std::size_t kB = simd::kSdftBlock<T>;
  const std::size_t window = 13;
  for (const std::size_t bins : kSdftBins) {
    const std::size_t width = (bins + kB - 1) / kB * 2 * kB;
    for (const std::size_t len : kSdftLens) {
      const std::uint64_t seed = 800 + 10 * bins + len;
      const std::vector<T> acc0 = random(width, seed);
      const std::vector<T> rows = random(width * std::max<std::size_t>(len, 1),
                                         seed + 1);
      const std::vector<T> x = random(len + window, seed + 2);
      // Emits at 0, every third update, twice at the midpoint and at len.
      std::vector<std::size_t> after = {0};
      for (std::size_t t = 3; t < len; t += 3) after.push_back(t);
      after.push_back(len / 2);
      after.push_back(len / 2);
      after.push_back(len);
      std::sort(after.begin(), after.end());
      const std::size_t pitch = bins + 1;  // one sentinel per power row
      const T sentinel = T(-7);

      std::vector<T> want_acc = acc0;
      std::vector<T> want_pow(after.size() * pitch, sentinel);
      std::size_t e = 0;
      for (std::size_t t = 0;; ++t) {
        for (; e < after.size() && after[e] == t; ++e) {
          for (std::size_t k = 0; k < bins; ++k) {
            const T* blk = want_acc.data() + (k / kB) * 2 * kB;
            const T re = blk[k % kB], im = blk[kB + k % kB];
            want_pow[e * pitch + k] = re * re + im * im;
          }
        }
        if (t == len) break;
        const T d = x[t + window] - x[t];
        for (std::size_t i = 0; i < width; ++i) {
          want_acc[i] = std::fma(d, rows[t * width + i], want_acc[i]);
        }
      }

      for (const simd::Kernels* k : runnable_targets()) {
        std::vector<T> acc = acc0;
        std::vector<T> pow(after.size() * pitch, sentinel);
        std::vector<simd::SdftEmit<T>> emits;
        for (std::size_t i = 0; i < after.size(); ++i) {
          emits.push_back({after[i], pow.data() + i * pitch});
        }
        kernel(*k, acc.data(), rows.data(), bins, x.data(), window, len,
               emits.data(), emits.size());
        for (std::size_t i = 0; i < width; ++i) {
          ASSERT_EQ(acc[i], want_acc[i])
              << k->name << " bins " << bins << " len " << len << " i " << i;
        }
        for (std::size_t i = 0; i < pow.size(); ++i) {
          ASSERT_EQ(pow[i], want_pow[i])
              << k->name << " bins " << bins << " len " << len << " slot "
              << i;
        }
      }
    }
  }
}

TEST(Simd, SdftRunMatchesPerSampleAxpyOnEveryTarget) {
  check_sdft_run<double>(
      random_real, [](const simd::Kernels& k, double* acc, const double* rows,
                      std::size_t bins, const double* x, std::size_t window,
                      std::size_t len, const simd::SdftEmit<double>* emits,
                      std::size_t n) {
        k.sdft_run(acc, rows, bins, x, window, len, emits, n);
      });
}

// Real data for the confirmation-dot check: random, with NaN, +Inf and
// -Inf planted, scaled into the subnormal range, or scaled near the
// overflow threshold so products overflow to Inf.
template <typename T>
std::vector<T> hostile_real(std::vector<T> x, int fill) {
  if (fill == 1 && x.size() > 2) {
    x[x.size() / 3] = std::numeric_limits<T>::quiet_NaN();
    x[x.size() / 2] = std::numeric_limits<T>::infinity();
    x[x.size() - 1] = -std::numeric_limits<T>::infinity();
  } else if (fill == 2) {
    const T tiny = std::numeric_limits<T>::denorm_min() * T(64);
    for (T& v : x) v *= tiny;
  } else if (fill == 3) {
    const T big = std::sqrt(std::numeric_limits<T>::max()) * T(0.75);
    for (T& v : x) v *= big;
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

// The batch confirmation kernel against one reference dot per value, at
// the scanner's two strides, batch counts 1-9 (full and partial batches of
// every target), segment lengths with and without vector tails, and
// hostile data.
template <typename T>
void check_segment_dots(std::vector<T> (*random)(std::size_t, std::uint64_t),
                        T (*dot)(const simd::Kernels&, const T*, const T*,
                                 std::size_t),
                        void (*kernel)(const simd::Kernels&, const T*,
                                       std::size_t, std::size_t, std::size_t,
                                       T*)) {
  constexpr std::size_t kS = simd::kSegments;
  const simd::Kernels* scalar = simd::kernels_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : {5, 13, 61, 960, 1920}) {
    for (int fill = 0; fill < 4; ++fill) {
      const std::vector<T> x =
          hostile_real(random(kS * n + 9 * 8, 2300 + n), fill);
      for (const std::size_t stride : {1, 8}) {
        for (std::size_t count = 1; count <= 9; ++count) {
          std::vector<T> want(count * kS);
          for (std::size_t p = 0; p < count; ++p) {
            const T* w = x.data() + p * stride;
            for (std::size_t s = 0; s + 1 < kS; ++s) {
              want[p * kS + s] = dot(*scalar, w + s * n, w + (s + 1) * n, n);
            }
            want[p * kS + kS - 1] = dot(*scalar, w, w, kS * n);
          }
          for (const simd::Kernels* k : runnable_targets()) {
            std::vector<T> got(count * kS);
            kernel(*k, x.data(), n, stride, count, got.data());
            for (std::size_t i = 0; i < got.size(); ++i) {
              ASSERT_TRUE(same_value(got[i], want[i]))
                  << k->name << " n " << n << " fill " << fill << " stride "
                  << stride << " count " << count << " value " << i << ": "
                  << got[i] << " vs " << want[i];
            }
          }
        }
      }
    }
  }
}

TEST(Simd, SegmentDotsMatchPerDotReferenceOnEveryTarget) {
  check_segment_dots<double>(
      random_real,
      [](const simd::Kernels& k, const double* a, const double* b,
         std::size_t n) { return k.dot(a, b, n); },
      [](const simd::Kernels& k, const double* x, std::size_t n,
         std::size_t stride, std::size_t count, double* out) {
        k.segment_dots(x, n, stride, count, out);
      });
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

TEST(Simd, SdftRunFloatMatchesPerSampleAxpyOnEveryTarget) {
  check_sdft_run<float>(
      random_realf, [](const simd::Kernels& k, float* acc, const float* rows,
                       std::size_t bins, const float* x, std::size_t window,
                       std::size_t len, const simd::SdftEmit<float>* emits,
                       std::size_t n) {
        k.sdft_run_f(acc, rows, bins, x, window, len, emits, n);
      });
}

TEST(Simd, SegmentDotsFloatMatchPerDotReferenceOnEveryTarget) {
  check_segment_dots<float>(
      random_realf,
      [](const simd::Kernels& k, const float* a, const float* b,
         std::size_t n) { return k.dot_f(a, b, n); },
      [](const simd::Kernels& k, const float* x, std::size_t n,
         std::size_t stride, std::size_t count, float* out) {
        k.segment_dots_f(x, n, stride, count, out);
      });
}

TEST(Simd, ButterflyFloatBitIdenticalAcrossTargetsAndCorrect) {
  check_fft_stages<float>(
      random_cplxf,
      [](const simd::Kernels& k, cplxf* x, const cplxf* tw, std::size_t m,
         bool conj_w) { k.fft_stages_f(x, tw, m, conj_w); },
      2100);
}


// --- Real-FFT untwiddles. ------------------------------------------------

// The documented trees, spelled out element by element (this file builds
// with -ffp-contract=off, so nothing here is fused).
template <typename T>
std::vector<std::complex<T>> reference_rfft_untwiddle(
    const std::vector<std::complex<T>>& z,
    const std::vector<std::complex<T>>& tw, std::size_t h) {
  std::vector<std::complex<T>> out(h + 1);
  out[0] = {z[0].real() + z[0].imag(), T(0)};
  out[h] = {z[0].real() - z[0].imag(), T(0)};
  for (std::size_t k = 1; k < h; ++k) {
    const T zr = z[k].real(), zi = z[k].imag();
    const T cr = z[h - k].real(), ci = -z[h - k].imag();
    const T er = T(0.5) * (zr + cr), ei = T(0.5) * (zi + ci);
    const T orr = T(0.5) * (zi - ci), oi = T(-0.5) * (zr - cr);
    const T wr = tw[k].real(), wi = tw[k].imag();
    out[k] = {er + (wr * orr - wi * oi), ei + (wr * oi + wi * orr)};
  }
  return out;
}

template <typename T>
std::vector<std::complex<T>> reference_irfft_untwiddle(
    const std::vector<std::complex<T>>& in,
    const std::vector<std::complex<T>>& tw, std::size_t h,
    const std::uint32_t* slot) {
  std::vector<std::complex<T>> zf(h);
  for (std::size_t k = 0; k < h; ++k) {
    const T xr = in[k].real(), xi = in[k].imag();
    const T cr = in[h - k].real(), ci = -in[h - k].imag();
    const T er = T(0.5) * (xr + cr), ei = T(0.5) * (xi + ci);
    const T pr = T(0.5) * (xr - cr), pi = T(0.5) * (xi - ci);
    const T wr = tw[k].real(), wi = -tw[k].imag();
    const T orr = wr * pr - wi * pi, oi = wr * pi + wi * pr;
    zf[slot != nullptr ? slot[k] : k] = {er - oi, ei + orr};
  }
  return zf;
}

// Bit reversal of k on log2(h) bits (h a power of two): the slot order the
// packed inverse writes for a radix-2 half.
std::vector<std::uint32_t> bit_reversal(std::size_t h) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < h) ++bits;
  std::vector<std::uint32_t> r(h);
  for (std::size_t k = 0; k < h; ++k) {
    std::uint32_t v = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (k & (std::size_t{1} << b)) v |= std::uint32_t{1} << (bits - 1 - b);
    }
    r[k] = v;
  }
  return r;
}

// Halves of 1, odd halves and every power of two up to 2^15, on random,
// NaN/Inf-bearing, subnormal and zero spectra; the inverse both in natural
// order and into bit-reversed slots. The twiddles are random, so no lane
// can pass by reading a neighbour's factor.
template <typename T, typename Gen, typename Fwd, typename Inv>
void check_untwiddles(Gen gen, Fwd fwd, Inv inv, std::uint64_t seed) {
  std::vector<std::size_t> halves = {1, 3, 5, 7, 9, 15, 33, 255};
  for (std::size_t h = 2; h <= 32768; h *= 2) halves.push_back(h);
  for (const std::size_t h : halves) {
    const auto tw = gen(h + 1, seed + 3 * h);
    const std::vector<std::uint32_t> br = bit_reversal(h);
    const bool pow2 = (h & (h - 1)) == 0;
    for (int fill = 0; fill < 4; ++fill) {
      const auto z = hostile_fill(gen(h + 1, seed + h), fill);
      const auto want = reference_rfft_untwiddle<T>(z, tw, h);
      const auto want_nat = reference_irfft_untwiddle<T>(z, tw, h, nullptr);
      const auto want_br =
          reference_irfft_untwiddle<T>(z, tw, h, pow2 ? br.data() : nullptr);
      for (const simd::Kernels* k : runnable_targets()) {
        std::vector<std::complex<T>> got(h + 1);
        fwd(*k, z.data(), tw.data(), got.data(), h);
        for (std::size_t i = 0; i <= h; ++i) {
          ASSERT_TRUE(same_value(got[i].real(), want[i].real()) &&
                      same_value(got[i].imag(), want[i].imag()))
              << k->name << " forward h " << h << " fill " << fill << " bin "
              << i << ": " << got[i] << " vs " << want[i];
        }
        for (const bool permuted : {false, true}) {
          const std::uint32_t* slot = permuted && pow2 ? br.data() : nullptr;
          const auto& ref = permuted ? want_br : want_nat;
          std::vector<std::complex<T>> zf(h);
          inv(*k, z.data(), tw.data(), zf.data(), h, slot);
          for (std::size_t i = 0; i < h; ++i) {
            ASSERT_TRUE(same_value(zf[i].real(), ref[i].real()) &&
                        same_value(zf[i].imag(), ref[i].imag()))
                << k->name << " inverse h " << h << " permuted " << permuted
                << " fill " << fill << " slot " << i << ": " << zf[i]
                << " vs " << ref[i];
          }
        }
      }
    }
  }
}

TEST(Simd, UntwiddlesBitIdenticalAcrossTargetsAndCorrect) {
  check_untwiddles<double>(
      random_cplx,
      [](const simd::Kernels& k, const cplx* z, const cplx* tw, cplx* out,
         std::size_t h) { k.rfft_untwiddle(z, tw, out, h); },
      [](const simd::Kernels& k, const cplx* in, const cplx* tw, cplx* zf,
         std::size_t h, const std::uint32_t* slot) {
        k.irfft_untwiddle(in, tw, zf, h, slot);
      },
      3100);
}

TEST(Simd, UntwiddlesFloatBitIdenticalAcrossTargetsAndCorrect) {
  check_untwiddles<float>(
      random_cplxf,
      [](const simd::Kernels& k, const cplxf* z, const cplxf* tw, cplxf* out,
         std::size_t h) { k.rfft_untwiddle_f(z, tw, out, h); },
      [](const simd::Kernels& k, const cplxf* in, const cplxf* tw, cplxf* zf,
         std::size_t h, const std::uint32_t* slot) {
        k.irfft_untwiddle_f(in, tw, zf, h, slot);
      },
      4100);
}

}  // namespace
}  // namespace aqua::dsp
