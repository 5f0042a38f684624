// Vector passes shared by the per-arch kernel TUs: the confirmation dots,
// the moving-DFT run and the real-FFT untwiddles, written once against a
// small traits struct each TU defines for its registers. Internal linkage
// (unnamed namespace), so each TU compiles its own copy under its own ISA
// flags. Not part of the public dsp API.
//
// Real-lane traits R name T, the vector V of R::kLanes lanes (the dot's
// 4 double / 8 float lane structure), zero/load/store/set1, fma(a, b, c) =
// a*b + c fused, mul, add, the scalar fma1 and the dot's reduce. Complex
// traits P name C, V of P::kLanes complex values, load/store, flip (XOR
// with a sign mask), conj_mask, set2(re, im), mul, add, sub, addsub (even
// lanes subtract, odd lanes add), swap (re <-> im), rev (reverse the
// complex order), scatter (lane j to p[slot[j]]) and cmul, the unfused
// butterfly product.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "dsp/simd_internal.h"

namespace aqua::dsp::simd {
namespace {

// Finishes one dot: spill the lane accumulator, run the tail elements
// [from, len) into their lanes in index order, reduce.
template <class R>
typename R::T finish_dot(typename R::V acc, const typename R::T* a,
                         const typename R::T* b, std::size_t from,
                         std::size_t len) {
  alignas(32) typename R::T lane[R::kLanes];
  R::store(lane, acc);
  for (std::size_t i = from; i < len; ++i) {
    lane[i % R::kLanes] = R::fma1(a[i], b[i], lane[i % R::kLanes]);
  }
  return R::reduce(lane);
}

// Window energies of kB starts at once: kB independent accumulator chains
// (one per start) hide the FMA latency a single dot waits on; each chain is
// exactly dot(w, w, len).
template <class R, std::size_t kB>
void window_energies(const typename R::T* x, std::size_t stride,
                     std::size_t len, typename R::T* out) {
  typename R::V acc[kB];
#pragma GCC unroll 8
  for (std::size_t b = 0; b < kB; ++b) acc[b] = R::zero();
  const std::size_t body = len - len % R::kLanes;
  for (std::size_t j = 0; j < body; j += R::kLanes) {
#pragma GCC unroll 8
    for (std::size_t b = 0; b < kB; ++b) {
      const typename R::V v = R::load(x + b * stride + j);
      acc[b] = R::fma(v, v, acc[b]);
    }
  }
  for (std::size_t b = 0; b < kB; ++b) {
    const typename R::T* w = x + b * stride;
    out[b * kSegments + kSegments - 1] = finish_dot<R>(acc[b], w, w, body, len);
  }
}

// The seven adjacent-segment dots of one start: each segment vector is
// loaded once and feeds the dot before it and the dot after it, seven
// independent chains.
template <class R>
void adjacent_dots(const typename R::T* w, std::size_t n,
                   typename R::T* out) {
  constexpr std::size_t kDots = kSegments - 1;
  typename R::V acc[kDots];
#pragma GCC unroll 8
  for (std::size_t s = 0; s < kDots; ++s) acc[s] = R::zero();
  const std::size_t body = n - n % R::kLanes;
  for (std::size_t i = 0; i < body; i += R::kLanes) {
    typename R::V a = R::load(w + i);
#pragma GCC unroll 8
    for (std::size_t s = 0; s < kDots; ++s) {
      const typename R::V b = R::load(w + (s + 1) * n + i);
      acc[s] = R::fma(a, b, acc[s]);
      a = b;
    }
  }
  for (std::size_t s = 0; s < kDots; ++s) {
    out[s] = finish_dot<R>(acc[s], w + s * n, w + (s + 1) * n, body, n);
  }
}

template <class R>
void segment_dots_t(const typename R::T* x, std::size_t n,
                    std::size_t stride, std::size_t count,
                    typename R::T* out) {
  const std::size_t len = kSegments * n;
  std::size_t p = 0;
  for (; p + 8 <= count; p += 8) {
    window_energies<R, 8>(x + p * stride, stride, len, out + p * kSegments);
  }
  if (p + 4 <= count) {
    window_energies<R, 4>(x + p * stride, stride, len, out + p * kSegments);
    p += 4;
  }
  if (p + 2 <= count) {
    window_energies<R, 2>(x + p * stride, stride, len, out + p * kSegments);
    p += 2;
  }
  if (p < count) {
    window_energies<R, 1>(x + p * stride, stride, len, out + p * kSegments);
  }
  for (std::size_t q = 0; q < count; ++q) {
    adjacent_dots<R>(x + q * stride, n, out + q * kSegments);
  }
}

// Moving DFT. The run is cut into slabs of kSdftSlab updates; within a
// slab, each group of up to kSdftGroup blocks keeps its running sums in
// registers over every update of the slab (2 * kSdftGroup independent FMA
// chains) and writes the slab's power rows from them, so the slab's table
// rows are read once per group while they sit in L1.
constexpr std::size_t kSdftSlab = 32;
constexpr std::size_t kSdftGroup = 4;

template <class R, std::size_t kG>
void sdft_group(typename R::T* acc, const typename R::T* rows,
                std::size_t width, std::size_t first_bin, std::size_t bins,
                const typename R::T* x, std::size_t window, std::size_t t0,
                std::size_t t1, const SdftEmit<typename R::T>* emits,
                std::size_t n_emits) {
  using T = typename R::T;
  constexpr std::size_t kL = R::kLanes;
  typename R::V re[kG], im[kG];
#pragma GCC unroll 4
  for (std::size_t b = 0; b < kG; ++b) {
    re[b] = R::load(acc + 2 * kL * b);
    im[b] = R::load(acc + 2 * kL * b + kL);
  }
  std::size_t t = t0;
  const auto advance = [&](std::size_t until) {
    for (; t < until; ++t) {
      const typename R::V d = R::set1(x[t + window] - x[t]);
      const T* row = rows + t * width;
#pragma GCC unroll 4
      for (std::size_t b = 0; b < kG; ++b) {
        re[b] = R::fma(d, R::load(row + 2 * kL * b), re[b]);
        im[b] = R::fma(d, R::load(row + 2 * kL * b + kL), im[b]);
      }
    }
  };
  for (std::size_t e = 0; e < n_emits; ++e) {
    advance(emits[e].after);
    T* dst = emits[e].dst + first_bin;
#pragma GCC unroll 4
    for (std::size_t b = 0; b < kG; ++b) {
      const typename R::V p =
          R::add(R::mul(re[b], re[b]), R::mul(im[b], im[b]));
      const std::size_t k = b * kL;
      if (first_bin + k + kL <= bins) {
        R::store(dst + k, p);
      } else {  // the partial last block: its valid bins only
        alignas(32) T lane[kL];
        R::store(lane, p);
        for (std::size_t l = 0; first_bin + k + l < bins; ++l) {
          dst[k + l] = lane[l];
        }
      }
    }
  }
  advance(t1);
#pragma GCC unroll 4
  for (std::size_t b = 0; b < kG; ++b) {
    R::store(acc + 2 * kL * b, re[b]);
    R::store(acc + 2 * kL * b + kL, im[b]);
  }
}

template <class R>
void sdft_run_t(typename R::T* acc, const typename R::T* rows,
                std::size_t bins, const typename R::T* x, std::size_t window,
                std::size_t len, const SdftEmit<typename R::T>* emits,
                std::size_t n_emits) {
  constexpr std::size_t kL = R::kLanes;
  static_assert(kL == kSdftBlock<typename R::T>);
  const std::size_t blocks = (bins + kL - 1) / kL;
  const std::size_t width = blocks * 2 * kL;
  std::size_t e0 = 0;
  for (std::size_t t0 = 0;; t0 += kSdftSlab) {
    const std::size_t t1 = std::min(t0 + kSdftSlab, len);
    // This slab writes the emits due before its last update; the final
    // slab also writes those due after it.
    std::size_t e1 = e0;
    while (e1 < n_emits && (emits[e1].after < t1 || t1 == len)) ++e1;
    for (std::size_t g = 0; g < blocks; g += kSdftGroup) {
      typename R::T* a = acc + g * 2 * kL;
      const typename R::T* r = rows + g * 2 * kL;
      const std::size_t first = g * kL;
      switch (std::min(kSdftGroup, blocks - g)) {
        case 4:
          sdft_group<R, 4>(a, r, width, first, bins, x, window, t0, t1,
                           emits + e0, e1 - e0);
          break;
        case 3:
          sdft_group<R, 3>(a, r, width, first, bins, x, window, t0, t1,
                           emits + e0, e1 - e0);
          break;
        case 2:
          sdft_group<R, 2>(a, r, width, first, bins, x, window, t0, t1,
                           emits + e0, e1 - e0);
          break;
        default:
          sdft_group<R, 1>(a, r, width, first, bins, x, window, t0, t1,
                           emits + e0, e1 - e0);
          break;
      }
    }
    e0 = e1;
    if (t1 == len) break;
  }
}

// Real-FFT untwiddles: kLanes bins per vector, the mirrored bins h - k
// loaded as one vector and reversed, the conjugates taken by sign flips,
// and every product and sum the unfused tree simd.h documents.
template <class P>
void rfft_untwiddle_t(const typename P::C* z, const typename P::C* tw,
                      typename P::C* out, std::size_t h) {
  constexpr std::size_t kL = P::kLanes;
  rfft_untwiddle_edges(z, out, h);
  const typename P::V conj = P::conj_mask(true);
  const typename P::V half = P::set2(0.5, 0.5);
  const typename P::V half_neg = P::set2(0.5, -0.5);
  std::size_t k = 1;
  for (; k + kL <= h; k += kL) {
    const typename P::V zv = P::load(z + k);
    const typename P::V cv =
        P::flip(P::rev(P::load(z + h - k - (kL - 1))), conj);
    const typename P::V e = P::mul(half, P::add(zv, cv));
    // [0.5 (zi - ci), -0.5 (zr - cr)]
    const typename P::V o = P::mul(P::swap(P::sub(zv, cv)), half_neg);
    P::store(out + k, P::add(e, P::cmul(o, P::load(tw + k))));
  }
  for (; k < h; ++k) out[k] = rfft_untwiddle_one(z, tw, h, k);
}

template <class P>
void irfft_untwiddle_t(const typename P::C* in, const typename P::C* tw,
                       typename P::C* zf, std::size_t h,
                       const std::uint32_t* slot) {
  constexpr std::size_t kL = P::kLanes;
  const typename P::V conj = P::conj_mask(true);
  const typename P::V half = P::set2(0.5, 0.5);
  std::size_t k = 0;
  for (; k + kL <= h; k += kL) {
    const typename P::V xv = P::load(in + k);
    const typename P::V cv =
        P::flip(P::rev(P::load(in + h - k - (kL - 1))), conj);
    const typename P::V e = P::mul(half, P::add(xv, cv));
    const typename P::V pw = P::mul(half, P::sub(xv, cv));
    const typename P::V o = P::cmul(pw, P::flip(P::load(tw + k), conj));
    const typename P::V v = P::addsub(e, P::swap(o));  // [er - oi, ei + or]
    if (slot != nullptr) {
      P::scatter(zf, slot + k, v);
    } else {
      P::store(zf + k, v);
    }
  }
  for (; k < h; ++k) {
    zf[slot != nullptr ? slot[k] : k] = irfft_untwiddle_one(in, tw, h, k);
  }
}

}  // namespace
}  // namespace aqua::dsp::simd
