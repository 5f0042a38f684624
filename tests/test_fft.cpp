// FFT correctness: against a naive DFT, roundtrips, Parseval, and the
// Bluestein path used by the 960-point OFDM symbol.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "dsp/fft.h"
#include "dsp/simd.h"
#include "fft_oracle.h"

namespace aqua::dsp {

// White-box access to the private radix-2 stages, so the plan-size guard
// (which no public path can violate) still gets a throw test, and to the
// Bluestein tables, so the chirp loops can be checked against their
// std::complex form.
struct FftPlanTestPeer {
  static void radix2(const FftPlan& plan, std::vector<cplx>& data) {
    plan.stages(data, /*invert=*/false);
  }

  // The radix-2 core in place: bit-reversed copy, then every stage.
  template <typename T>
  static void radix2(const BasicFftPlan<T>& plan,
                     std::vector<std::complex<T>>& data, bool invert) {
    const std::vector<std::complex<T>> in = data;
    plan.gather(in, data);
    plan.stages(data, invert);
  }

  // The Bluestein transform with the chirp loops written as std::complex
  // products (the form BasicFftPlan::transform must reproduce bit for bit).
  template <typename T>
  static std::vector<std::complex<T>> bluestein_reference(
      const BasicFftPlan<T>& plan, const std::vector<std::complex<T>>& in,
      bool invert) {
    using C = std::complex<T>;
    std::vector<C> a(plan.m_, C{});
    for (std::size_t k = 0; k < plan.n_; ++k) {
      const C x = invert ? std::conj(in[k]) : in[k];
      a[k] = x * plan.chirp_[k];
    }
    radix2(plan, a, /*invert=*/false);
    simd::cmul_inplace(simd::active(), a.data(), plan.chirp_fft_.data(),
                       plan.m_);
    radix2(plan, a, /*invert=*/true);
    const T scale = T(1.0) / static_cast<T>(plan.m_);
    std::vector<C> out(plan.n_);
    for (std::size_t k = 0; k < plan.n_; ++k) {
      C y = a[k] * scale * plan.chirp_[k];
      out[k] = invert ? std::conj(y) : y;
    }
    return out;
  }
};

namespace {

std::vector<cplx> naive_dft(std::span<const cplx> x) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double a = -kTwoPi * static_cast<double>(k) *
                       static_cast<double>(t) / static_cast<double>(n);
      acc += x[t] * cplx{std::cos(a), std::sin(a)};
    }
    out[k] = acc;
  }
  return out;
}

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {g(rng), g(rng)};
  return x;
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const std::vector<cplx> x = random_signal(n, 17 + n);
  const std::vector<cplx> expect = naive_dft(x);
  const std::vector<cplx> got = fft(x);
  ASSERT_EQ(got.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(got[k].real(), expect[k].real(), 1e-8 * static_cast<double>(n))
        << "bin " << k;
    EXPECT_NEAR(got[k].imag(), expect[k].imag(), 1e-8 * static_cast<double>(n))
        << "bin " << k;
  }
}

TEST_P(FftSizeTest, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const std::vector<cplx> x = random_signal(n, 99 + n);
  const std::vector<cplx> back = ifft(fft(x));
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(back[k].real(), x[k].real(), 1e-9);
    EXPECT_NEAR(back[k].imag(), x[k].imag(), 1e-9);
  }
}

TEST_P(FftSizeTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  const std::vector<cplx> x = random_signal(n, 7 + n);
  const std::vector<cplx> spec = fft(x);
  double t_energy = 0.0, f_energy = 0.0;
  for (const cplx& v : x) t_energy += std::norm(v);
  for (const cplx& v : spec) f_energy += std::norm(v);
  EXPECT_NEAR(f_energy, t_energy * static_cast<double>(n),
              1e-6 * f_energy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values<std::size_t>(1, 2, 3, 8, 15, 16, 60,
                                                        64, 100, 256, 480, 960,
                                                        1027, 1920, 4800));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> x(960, cplx{0.0, 0.0});
  x[0] = {1.0, 0.0};
  const std::vector<cplx> spec = fft(x);
  for (const cplx& v : spec) {
    EXPECT_NEAR(v.real(), 1.0, 1e-9);
    EXPECT_NEAR(v.imag(), 0.0, 1e-9);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  // 50 Hz spacing at 48 kHz: bin 20 = 1 kHz.
  const std::size_t n = 960;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(kTwoPi * 1000.0 * static_cast<double>(i) / 48000.0);
  }
  const std::vector<cplx> spec = fft_real(x);
  EXPECT_NEAR(std::abs(spec[20]), static_cast<double>(n) / 2.0, 1e-6);
  EXPECT_NEAR(std::abs(spec[21]), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(spec[19]), 0.0, 1e-6);
}

TEST(Fft, LinearityHolds) {
  const std::vector<cplx> a = random_signal(100, 1);
  const std::vector<cplx> b = random_signal(100, 2);
  std::vector<cplx> sum(100);
  for (std::size_t i = 0; i < 100; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const std::vector<cplx> fa = fft(a);
  const std::vector<cplx> fb = fft(b);
  const std::vector<cplx> fsum = fft(sum);
  for (std::size_t k = 0; k < 100; ++k) {
    const cplx expect = 2.0 * fa[k] + 3.0 * fb[k];
    EXPECT_NEAR(std::abs(fsum[k] - expect), 0.0, 1e-8);
  }
}

TEST(Fft, RealInverseRecoversRealSignal) {
  std::mt19937_64 rng(4);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> x(960);
  for (auto& v : x) v = g(rng);
  const std::vector<double> back = ifft_real(fft_real(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

TEST(Fft, PlanRejectsZeroSize) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
}

TEST(Fft, PlanRejectsMismatchedBuffers) {
  FftPlan plan(16);
  std::vector<cplx> in(8), out(16);
  EXPECT_THROW(plan.forward(in, out), std::invalid_argument);
}

TEST(Fft, Radix2RejectsMismatchedWorkSize) {
  // The internal kernel must throw (not assert) so -DNDEBUG release builds
  // fail loudly instead of silently transforming with the wrong plan.
  FftPlan plan(16);
  std::vector<cplx> wrong(8);
  EXPECT_THROW(FftPlanTestPeer::radix2(plan, wrong), std::invalid_argument);
  std::vector<cplx> right(16, cplx{1.0, 0.0});
  EXPECT_NO_THROW(FftPlanTestPeer::radix2(plan, right));
}

TEST(Fft, BluesteinPlanRejectsMismatchedWorkSize) {
  // A 960-point plan's radix-2 work size is 2048, not 960.
  FftPlan plan(960);
  std::vector<cplx> n_sized(960);
  EXPECT_THROW(FftPlanTestPeer::radix2(plan, n_sized), std::invalid_argument);
}

template <typename T>
void check_bluestein_chirp_loops() {
  using C = std::complex<T>;
  const T inf = std::numeric_limits<T>::infinity();
  const T nan = std::numeric_limits<T>::quiet_NaN();
  Workspace ws;
  for (const std::size_t n : {std::size_t{3}, std::size_t{7}, std::size_t{60},
                              std::size_t{480}, std::size_t{960},
                              std::size_t{1027}}) {
    const BasicFftPlan<T> plan(n);
    std::mt19937_64 rng(90 + n);
    std::normal_distribution<double> g(0.0, 1.0);
    std::vector<C> in(n);
    for (C& v : in) v = {static_cast<T>(g(rng)), static_cast<T>(g(rng))};
    for (const bool hostile : {false, true}) {
      if (hostile) {  // NaN/Inf inputs reach the Annex G product path
        in[0] = {inf, -inf};
        in[n / 2] = {nan, T(1)};
        in[n - 1] = {-inf, T(0)};
      }
      for (const bool invert : {false, true}) {
        std::vector<C> got(n);
        std::vector<C> want =
            FftPlanTestPeer::bluestein_reference(plan, in, invert);
        if (invert) {
          plan.inverse(in, got, ws);
          const T scale = T(1.0) / static_cast<T>(n);
          for (C& v : want) v *= scale;
        } else {
          plan.forward(in, got, ws);
        }
        EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(C)), 0)
            << "n " << n << " hostile " << hostile << " invert " << invert;
      }
    }
  }
}

TEST(Fft, BluesteinChirpLoopsMatchComplexProductBitForBit) {
  check_bluestein_chirp_loops<double>();
  check_bluestein_chirp_loops<float>();
}

// --- Production plans against the copy + swap + per-stage oracle. -------

// Every power of two from 1 to 2^15, the numerology's 480, 960 and 4,800,
// and a few odd sizes (Bluestein and the odd real fallback).
std::vector<std::size_t> oracle_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 32768; n *= 2) sizes.push_back(n);
  for (const std::size_t n : {3, 5, 15, 17, 480, 960, 1027, 4800}) {
    sizes.push_back(n);
  }
  return sizes;
}

enum class Fill { kRandom, kNonFinite, kHuge, kDenormal, kZero };

const char* fill_name(Fill f) {
  switch (f) {
    case Fill::kRandom: return "random";
    case Fill::kNonFinite: return "nan/inf";
    case Fill::kHuge: return "huge";
    case Fill::kDenormal: return "denormal";
    case Fill::kZero: return "zero";
  }
  return "?";
}

// `count` values of T: Gaussian noise; noise with NaN, +Inf and -Inf
// sprinkled in; noise with values near the overflow threshold (so some
// outputs overflow and some do not); subnormal magnitudes with signed
// zeros; or all +0.0.
template <typename T>
std::vector<T> oracle_samples(std::size_t count, Fill fill,
                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<T> x(count, T(0));
  if (fill == Fill::kZero) return x;
  for (std::size_t i = 0; i < count; ++i) {
    const double v = g(rng);
    if (fill == Fill::kDenormal) {
      x[i] = i % 11 == 3 ? T(-0.0)
                         : static_cast<T>(std::ldexp(
                               v, std::numeric_limits<T>::min_exponent - 4));
    } else {
      x[i] = static_cast<T>(v);
    }
  }
  if (fill == Fill::kNonFinite && count > 0) {
    x[(count * 1) / 5] = std::numeric_limits<T>::quiet_NaN();
    x[(count * 2) / 5] = std::numeric_limits<T>::infinity();
    x[(count * 4) / 5] = -std::numeric_limits<T>::infinity();
  }
  if (fill == Fill::kHuge) {
    const T big = std::numeric_limits<T>::max() / T(3);
    for (std::size_t i = 0; i < count; i += 7) x[i] = (i % 2 ? -big : big);
  }
  return x;
}

template <typename T>
std::vector<std::complex<T>> oracle_cplx(std::size_t n, Fill fill,
                                         std::uint64_t seed) {
  const std::vector<T> parts = oracle_samples<T>(2 * n, fill, seed);
  std::vector<std::complex<T>> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = {parts[2 * i], parts[2 * i + 1]};
  return x;
}

// Bit-for-bit, except that any NaN matches any NaN: which NaN payload and
// sign an IEEE operation propagates depends on operand order, which the
// compiler may swap for commutative adds and multiplies.
template <typename T>
bool same_bits(T a, T b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
::testing::AssertionResult same_bits(std::span<const T> got,
                                     std::span<const T> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_bits(got[i], want[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

template <typename T>
::testing::AssertionResult same_bits(const std::vector<std::complex<T>>& got,
                                     const std::vector<std::complex<T>>& want) {
  return same_bits<T>(
      std::span<const T>(reinterpret_cast<const T*>(got.data()),
                         2 * got.size()),
      std::span<const T>(reinterpret_cast<const T*>(want.data()),
                         2 * want.size()));
}

constexpr Fill kFills[] = {Fill::kRandom, Fill::kNonFinite, Fill::kHuge,
                           Fill::kDenormal, Fill::kZero};

template <typename T>
void check_complex_plans_against_oracle() {
  using C = std::complex<T>;
  Workspace ws;
  for (const std::size_t n : oracle_sizes()) {
    const oracle::Fft<T> want(n);
    const BasicFftPlan<T>& plan = plan_of<T>(n);
    for (const Fill fill : kFills) {
      const std::vector<C> in = oracle_cplx<T>(n, fill, 300 + n);
      const std::string where = "n " + std::to_string(n) + " " +
                                fill_name(fill) + " " + simd::active().name;
      std::vector<C> got(n);
      plan.forward(in, got, ws);
      ASSERT_TRUE(same_bits(got, want.forward(in))) << "forward " << where;
      plan.inverse(in, got, ws);
      ASSERT_TRUE(same_bits(got, want.inverse(in))) << "inverse " << where;
      // In place: the aliased call permutes without a second buffer.
      got = in;
      plan.forward(got, got, ws);
      ASSERT_TRUE(same_bits(got, want.forward(in))) << "in place " << where;
    }
  }
}

template <typename T>
void check_real_plans_against_oracle() {
  using C = std::complex<T>;
  Workspace ws;
  for (const std::size_t n : oracle_sizes()) {
    const oracle::Rfft<T> want(n);
    const BasicRfftPlan<T>& plan = rplan_of<T>(n);
    for (const Fill fill : kFills) {
      const std::string where = "n " + std::to_string(n) + " " +
                                fill_name(fill) + " " + simd::active().name;
      const std::vector<T> x = oracle_samples<T>(n, fill, 500 + n);
      std::vector<C> spec(plan.spectrum_size());
      plan.forward(x, spec, ws);
      ASSERT_TRUE(same_bits(spec, want.forward(x))) << "forward " << where;
      // Any packed spectrum, including non-real DC/Nyquist bins.
      const std::vector<C> bins =
          oracle_cplx<T>(plan.spectrum_size(), fill, 700 + n);
      std::vector<T> back(n);
      plan.inverse(bins, back, ws);
      const std::vector<T> want_back = want.inverse(bins);
      ASSERT_TRUE(same_bits<T>(back, want_back)) << "inverse " << where;
    }
  }
}

TEST(FftOracle, ComplexPlansMatchCopySwapStagesBitForBit) {
  check_complex_plans_against_oracle<double>();
  check_complex_plans_against_oracle<float>();
}

TEST(FftOracle, RealPlansMatchCopySwapStagesBitForBit) {
  check_real_plans_against_oracle<double>();
  check_real_plans_against_oracle<float>();
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(960), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

}  // namespace
}  // namespace aqua::dsp
