// Internal wiring between the SIMD dispatcher and the per-arch kernel
// translation units. Not part of the public dsp API.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/simd.h"

namespace aqua::dsp::simd {

// Defined in simd_avx2.cpp / simd_neon.cpp when CMake
// compiles them in (the TU carries the per-arch compile flags; nothing
// outside it is built with anything beyond the baseline ISA).
#if defined(AQUA_SIMD_HAVE_AVX2)
const Kernels* avx2_kernels();
#endif
#if defined(AQUA_SIMD_HAVE_NEON)
const Kernels* neon_kernels();
#endif

// One-element forms of the untwiddle trees documented in simd.h: the
// scalar kernels loop over them and the vector kernels finish their tails
// with them. Internal linkage, so every kernel TU compiles its own copy
// under its own flags (all kernel TUs build with -ffp-contract=off).
namespace {

template <typename T>
std::complex<T> rfft_untwiddle_one(const std::complex<T>* z,
                                   const std::complex<T>* tw, std::size_t h,
                                   std::size_t k) {
  const T half = T(0.5);
  const T zr = z[k].real(), zi = z[k].imag();
  const T cr = z[h - k].real(), ci = -z[h - k].imag();  // conj
  const T er = half * (zr + cr), ei = half * (zi + ci);
  const T orr = half * (zi - ci), oi = -half * (zr - cr);
  const T wr = tw[k].real(), wi = tw[k].imag();
  return {er + (wr * orr - wi * oi), ei + (wr * oi + wi * orr)};
}

template <typename T>
std::complex<T> irfft_untwiddle_one(const std::complex<T>* in,
                                    const std::complex<T>* tw, std::size_t h,
                                    std::size_t k) {
  const T half = T(0.5);
  const T xr = in[k].real(), xi = in[k].imag();
  const T cr = in[h - k].real(), ci = -in[h - k].imag();  // conj
  const T er = half * (xr + cr), ei = half * (xi + ci);
  const T pr = half * (xr - cr), pi = half * (xi - ci);
  const T wr = tw[k].real(), wi = -tw[k].imag();  // conj
  const T orr = wr * pr - wi * pi, oi = wr * pi + wi * pr;
  return {er - oi, ei + orr};  // E + j O
}

// The forward untwiddle's two real edge bins.
template <typename T>
void rfft_untwiddle_edges(const std::complex<T>* z, std::complex<T>* out,
                          std::size_t h) {
  out[0] = {z[0].real() + z[0].imag(), T(0)};
  out[h] = {z[0].real() - z[0].imag(), T(0)};
}

}  // namespace

}  // namespace aqua::dsp::simd
