// Reference transforms for the FFT plans, in the form they had before the
// bit reversal moved into the copy passes: copy the input, permute it in
// place with the swap loop, then run the butterfly stages one at a time in
// plain C++; the packed real transform packs, transforms and scales in
// separate passes. The production plans (dsp/fft.h) must reproduce these
// outputs bit for bit: they only move data differently.
//
// Tables are built exactly as BasicFftPlan / BasicRfftPlan build theirs
// (double-precision twiddles and chirps, rounded once into T), and the
// untwiddle and chirp loops are spelled with the same operations, so any
// difference is a data-movement or stage-order bug in the plans.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/types.h"

// The butterfly and untwiddle trees are unfused by contract; keep the
// compiler from contracting them where the baseline ISA has FMA (AArch64).
// The build turns contraction off everywhere; this keeps the header right
// when it is compiled without that flag.
#if defined(__clang__)
#define AQUA_ORACLE_NO_CONTRACT
#elif defined(__GNUC__)
#define AQUA_ORACLE_NO_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define AQUA_ORACLE_NO_CONTRACT
#endif

namespace aqua::oracle {

using dsp::cplx;
using dsp::kPi;
using dsp::kTwoPi;

template <typename T>
std::complex<T> round_to(const cplx& v) {
  return {static_cast<T>(v.real()), static_cast<T>(v.imag())};
}

// (xr + j xi) * w as BasicFftPlan's chirp loops spell it.
template <typename T>
std::complex<T> chirp_product(T xr, T xi, const std::complex<T>& w) {
  const T re = xr * w.real() - xi * w.imag();
  const T im = xr * w.imag() + xi * w.real();
  if (std::isnan(re) && std::isnan(im)) return std::complex<T>{xr, xi} * w;
  return {re, im};
}

// One radix-2 butterfly stage, block by block.
template <typename T>
AQUA_ORACLE_NO_CONTRACT void butterfly_stage(std::complex<T>* data,
                                             const std::complex<T>* w,
                                             std::size_t m, std::size_t half,
                                             bool conj_w) {
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
  const T s = conj_w ? T(-1) : T(1);
  for (std::size_t start = 0; start < m; start += 2 * half) {
    std::complex<T>* a = data + start;
    std::complex<T>* b = a + half;
    for (std::size_t i = 0; i < half; ++i) {
      const T wr = w[i].real(), wi = s * w[i].imag();
      const T br = b[i].real(), bi = b[i].imag();
      const T vr = br * wr - bi * wi;
      const T vi = br * wi + bi * wr;
      const T ur = a[i].real(), ui = a[i].imag();
      a[i] = {ur + vr, ui + vi};
      b[i] = {ur - vr, ui - vi};
    }
  }
}

/// Complex DFT of any size >= 1: radix-2 for powers of two, Bluestein
/// otherwise, as BasicFftPlan<T>.
template <typename T>
class Fft {
 public:
  using C = std::complex<T>;

  explicit Fft(std::size_t n) : n_(n) {
    pow2_ = (n & (n - 1)) == 0;
    m_ = 1;
    while (m_ < (pow2_ ? n : 2 * n - 1)) m_ <<= 1;
    bitrev_.assign(m_, 0);
    std::size_t log2m = 0;
    while ((std::size_t{1} << log2m) < m_) ++log2m;
    for (std::size_t i = 0; i < m_; ++i) {
      std::size_t r = 0;
      for (std::size_t b = 0; b < log2m; ++b) {
        if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2m - 1 - b);
      }
      bitrev_[i] = r;
    }
    std::vector<cplx> tw(m_ / 2 + 1);
    for (std::size_t k = 0; k <= m_ / 2; ++k) {
      const double a =
          -kTwoPi * static_cast<double>(k) / static_cast<double>(m_);
      tw[k] = {std::cos(a), std::sin(a)};
    }
    stage_tw_.resize(m_ > 1 ? m_ - 1 : 0);
    for (std::size_t half = 1; half < m_; half <<= 1) {
      const std::size_t stride = m_ / (2 * half);
      for (std::size_t k = 0; k < half; ++k) {
        stage_tw_[half - 1 + k] = round_to<T>(tw[k * stride]);
      }
    }
    if (!pow2_) {
      chirp_.resize(n_);
      for (std::size_t k = 0; k < n_; ++k) {
        const std::size_t k2 = (k * k) % (2 * n_);
        const double a =
            -kPi * static_cast<double>(k2) / static_cast<double>(n_);
        chirp_[k] = round_to<T>({std::cos(a), std::sin(a)});
      }
      chirp_fft_.assign(m_, C{});
      chirp_fft_[0] = std::conj(chirp_[0]);
      for (std::size_t k = 1; k < n_; ++k) {
        chirp_fft_[k] = std::conj(chirp_[k]);
        chirp_fft_[m_ - k] = std::conj(chirp_[k]);
      }
      radix2(chirp_fft_, /*invert=*/false);
    }
  }

  std::size_t size() const { return n_; }

  std::vector<C> forward(std::span<const C> in) const {
    return transform(in, /*invert=*/false);
  }

  std::vector<C> inverse(std::span<const C> in) const {
    std::vector<C> out = transform(in, /*invert=*/true);
    const T scale = T(1.0) / static_cast<T>(n_);
    for (C& v : out) v *= scale;
    return out;
  }

 private:
  void radix2(std::span<C> data, bool invert) const {
    const std::size_t m = data.size();
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = bitrev_[i];
      if (i < j) std::swap(data[i], data[j]);
    }
    for (std::size_t half = 1; half < m; half <<= 1) {
      butterfly_stage(data.data(), stage_tw_.data() + (half - 1), m, half,
                      invert);
    }
  }

  std::vector<C> transform(std::span<const C> in, bool invert) const {
    if (pow2_) {
      std::vector<C> out(in.begin(), in.end());
      radix2(out, invert);
      return out;
    }
    std::vector<C> a(m_, C{});
    for (std::size_t k = 0; k < n_; ++k) {
      const T xi = invert ? -in[k].imag() : in[k].imag();
      a[k] = chirp_product(in[k].real(), xi, chirp_[k]);
    }
    radix2(a, /*invert=*/false);
    for (std::size_t k = 0; k < m_; ++k) {  // the scalar cmul_inplace tree
      const T yr = a[k].real(), yi = a[k].imag();
      const T xr = chirp_fft_[k].real(), xi = chirp_fft_[k].imag();
      a[k] = {std::fma(yr, xr, -(yi * xi)), std::fma(yi, xr, yr * xi)};
    }
    radix2(a, /*invert=*/true);
    const T scale = T(1.0) / static_cast<T>(m_);
    std::vector<C> out(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      const C y =
          chirp_product(a[k].real() * scale, a[k].imag() * scale, chirp_[k]);
      out[k] = {y.real(), invert ? -y.imag() : y.imag()};
    }
    return out;
  }

  std::size_t n_ = 0;
  bool pow2_ = false;
  std::size_t m_ = 0;
  std::vector<std::size_t> bitrev_;
  std::vector<C> stage_tw_;
  std::vector<C> chirp_;
  std::vector<C> chirp_fft_;
};

/// Packed real DFT (bins 0 ... n/2) and its inverse, as BasicRfftPlan<T>:
/// one n/2-point complex transform plus an untwiddle pass for even n, the
/// full complex transform for odd n.
template <typename T>
class Rfft {
 public:
  using C = std::complex<T>;

  explicit Rfft(std::size_t n)
      : n_(n), h_(n / 2), inner_(n % 2 == 0 && n >= 2 ? n / 2 : n) {
    if (n % 2 == 0 && n >= 2) {
      twiddle_.resize(h_ + 1);
      for (std::size_t k = 0; k <= h_; ++k) {
        const double a =
            -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
        twiddle_[k] = round_to<T>({std::cos(a), std::sin(a)});
      }
    }
  }

  std::vector<C> forward(std::span<const T> in) const {
    if (twiddle_.empty()) {
      std::vector<C> tmp(n_);
      for (std::size_t i = 0; i < n_; ++i) tmp[i] = {in[i], T(0.0)};
      std::vector<C> spec = inner_.forward(tmp);
      spec.resize(n_ / 2 + 1);
      return spec;
    }
    std::vector<C> z(h_);
    for (std::size_t k = 0; k < h_; ++k) z[k] = {in[2 * k], in[2 * k + 1]};
    const std::vector<C> zf = inner_.forward(z);
    std::vector<C> out(h_ + 1);
    out[0] = {zf[0].real() + zf[0].imag(), T(0.0)};
    out[h_] = {zf[0].real() - zf[0].imag(), T(0.0)};
    untwiddle(zf.data(), twiddle_.data(), out.data(), h_);
    return out;
  }

  std::vector<T> inverse(std::span<const C> in) const {
    std::vector<T> out(n_);
    if (twiddle_.empty()) {
      std::vector<C> spec(n_);
      spec[0] = in[0];
      for (std::size_t k = 1; k <= n_ / 2; ++k) {
        spec[k] = in[k];
        spec[n_ - k] = std::conj(in[k]);
      }
      const std::vector<C> time = inner_.inverse(spec);
      for (std::size_t i = 0; i < n_; ++i) out[i] = time[i].real();
      return out;
    }
    std::vector<C> zf(h_);
    inverse_untwiddle(in.data(), twiddle_.data(), zf.data(), h_);
    const std::vector<C> z = inner_.inverse(zf);
    for (std::size_t k = 0; k < h_; ++k) {
      out[2 * k] = z[k].real();
      out[2 * k + 1] = z[k].imag();
    }
    return out;
  }

 private:
  // The untwiddle trees are unfused by contract, as the butterfly.
  // Bins 1 ... h-1 of the forward split; the edge bins are set by forward().
  AQUA_ORACLE_NO_CONTRACT static void untwiddle(const C* zf, const C* tw,
                                                C* out, std::size_t h) {
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
    const T half_scale = T(0.5);
    for (std::size_t k = 1; k < h; ++k) {
      const T zr = zf[k].real(), zi = zf[k].imag();
      const T cr = zf[h - k].real(), ci = -zf[h - k].imag();
      const T er = half_scale * (zr + cr), ei = half_scale * (zi + ci);
      const T orr = half_scale * (zi - ci), oi = -half_scale * (zr - cr);
      const T wr = tw[k].real(), wi = tw[k].imag();
      out[k] = {er + (wr * orr - wi * oi), ei + (wr * oi + wi * orr)};
    }
  }

  AQUA_ORACLE_NO_CONTRACT static void inverse_untwiddle(const C* in,
                                                        const C* tw, C* zf,
                                                        std::size_t h) {
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
    const T half_scale = T(0.5);
    for (std::size_t k = 0; k < h; ++k) {
      const T xr = in[k].real(), xi = in[k].imag();
      const T cr = in[h - k].real(), ci = -in[h - k].imag();
      const T er = half_scale * (xr + cr), ei = half_scale * (xi + ci);
      const T owr = half_scale * (xr - cr), owi = half_scale * (xi - ci);
      const T wr = tw[k].real(), wi = -tw[k].imag();
      const T orr = wr * owr - wi * owi, oi = wr * owi + wi * owr;
      zf[k] = {er - oi, ei + orr};
    }
  }

  std::size_t n_ = 0;
  std::size_t h_ = 0;
  Fft<T> inner_;
  std::vector<C> twiddle_;
};

}  // namespace aqua::oracle

#undef AQUA_ORACLE_NO_CONTRACT
