// Scalar reference kernels and the runtime dispatch decision.
//
// This translation unit is compiled with -ffp-contract=off (see
// CMakeLists.txt) so the butterfly kernels' plain mul/add trees cannot be
// contracted into fused multiply-adds on targets whose baseline has FMA
// (AArch64); fusion is only ever spelled explicitly via std::fma.
#include "dsp/simd.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "dsp/simd_internal.h"

namespace aqua::dsp::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These spell out the exact expression tree every
// vector implementation must reproduce: std::fma where the vector units fuse,
// fixed-lane accumulation (4 double / 8 float) with a fixed reduction order,
// and an unfused mul/add tree in the butterfly and the untwiddles (the
// historical std::complex product, kept so double FFT outputs are
// bit-identical to the scalar era).
// ---------------------------------------------------------------------------

void scalar_cmul_inplace(cplx* y, const cplx* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double yr = y[i].real(), yi = y[i].imag();
    const double xr = x[i].real(), xi = x[i].imag();
    y[i] = {std::fma(yr, xr, -(yi * xi)), std::fma(yi, xr, yr * xi)};
  }
}

void scalar_cmul_inplace_f(cplxf* y, const cplxf* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float yr = y[i].real(), yi = y[i].imag();
    const float xr = x[i].real(), xi = x[i].imag();
    y[i] = {std::fma(yr, xr, -(yi * xi)), std::fma(yi, xr, yr * xi)};
  }
}

double scalar_dot(const double* a, const double* b, std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    lane[0] = std::fma(a[i], b[i], lane[0]);
    lane[1] = std::fma(a[i + 1], b[i + 1], lane[1]);
    lane[2] = std::fma(a[i + 2], b[i + 2], lane[2]);
    lane[3] = std::fma(a[i + 3], b[i + 3], lane[3]);
  }
  for (std::size_t i = n4; i < n; ++i) {
    lane[i & 3] = std::fma(a[i], b[i], lane[i & 3]);
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

float scalar_dot_f(const float* a, const float* b, std::size_t n) {
  float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      lane[l] = std::fma(a[i + l], b[i + l], lane[l]);
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    lane[i & 7] = std::fma(a[i], b[i], lane[i & 7]);
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

// The confirmation dots of every window start, one reference dot per value.
template <typename T>
void scalar_segment_dots_t(T (*dot)(const T*, const T*, std::size_t),
                           const T* x, std::size_t n, std::size_t stride,
                           std::size_t count, T* out) {
  for (std::size_t p = 0; p < count; ++p) {
    const T* w = x + p * stride;
    T* o = out + p * kSegments;
    for (std::size_t s = 0; s + 1 < kSegments; ++s) {
      o[s] = dot(w + s * n, w + (s + 1) * n, n);
    }
    o[kSegments - 1] = dot(w, w, kSegments * n);
  }
}

void scalar_segment_dots(const double* x, std::size_t n, std::size_t stride,
                         std::size_t count, double* out) {
  scalar_segment_dots_t(scalar_dot, x, n, stride, count, out);
}

void scalar_segment_dots_f(const float* x, std::size_t n, std::size_t stride,
                           std::size_t count, float* out) {
  scalar_segment_dots_t(scalar_dot_f, x, n, stride, count, out);
}

// Sample by sample: emits due before the update, then one fused axpy of
// the whole blocked row.
template <typename T>
void scalar_sdft_run_t(T* acc, const T* rows, std::size_t bins, const T* x,
                       std::size_t window, std::size_t len,
                       const SdftEmit<T>* emits, std::size_t n_emits) {
  constexpr std::size_t kB = kSdftBlock<T>;
  const std::size_t width = (bins + kB - 1) / kB * 2 * kB;
  std::size_t e = 0;
  for (std::size_t t = 0;; ++t) {
    for (; e < n_emits && emits[e].after == t; ++e) {
      for (std::size_t k = 0; k < bins; ++k) {
        const T* blk = acc + (k / kB) * 2 * kB;
        const T re = blk[k % kB], im = blk[kB + k % kB];
        emits[e].dst[k] = re * re + im * im;
      }
    }
    if (t == len) break;
    const T d = x[t + window] - x[t];
    const T* row = rows + t * width;
    for (std::size_t i = 0; i < width; ++i) {
      acc[i] = std::fma(d, row[i], acc[i]);
    }
  }
}

void scalar_sdft_run(double* acc, const double* rows, std::size_t bins,
                     const double* x, std::size_t window, std::size_t len,
                     const SdftEmit<double>* emits, std::size_t n_emits) {
  scalar_sdft_run_t(acc, rows, bins, x, window, len, emits, n_emits);
}

void scalar_sdft_run_f(float* acc, const float* rows, std::size_t bins,
                       const float* x, std::size_t window, std::size_t len,
                       const SdftEmit<float>* emits, std::size_t n_emits) {
  scalar_sdft_run_t(acc, rows, bins, x, window, len, emits, n_emits);
}

template <typename T>
void scalar_rfft_untwiddle_t(const std::complex<T>* z,
                             const std::complex<T>* tw, std::complex<T>* out,
                             std::size_t h) {
  rfft_untwiddle_edges(z, out, h);
  for (std::size_t k = 1; k < h; ++k) out[k] = rfft_untwiddle_one(z, tw, h, k);
}

template <typename T>
void scalar_irfft_untwiddle_t(const std::complex<T>* in,
                              const std::complex<T>* tw, std::complex<T>* zf,
                              std::size_t h, const std::uint32_t* slot) {
  for (std::size_t k = 0; k < h; ++k) {
    zf[slot != nullptr ? slot[k] : k] = irfft_untwiddle_one(in, tw, h, k);
  }
}

void scalar_rfft_untwiddle(const cplx* z, const cplx* tw, cplx* out,
                           std::size_t h) {
  scalar_rfft_untwiddle_t(z, tw, out, h);
}

void scalar_rfft_untwiddle_f(const cplxf* z, const cplxf* tw, cplxf* out,
                             std::size_t h) {
  scalar_rfft_untwiddle_t(z, tw, out, h);
}

void scalar_irfft_untwiddle(const cplx* in, const cplx* tw, cplx* zf,
                            std::size_t h, const std::uint32_t* slot) {
  scalar_irfft_untwiddle_t(in, tw, zf, h, slot);
}

void scalar_irfft_untwiddle_f(const cplxf* in, const cplxf* tw, cplxf* zf,
                              std::size_t h, const std::uint32_t* slot) {
  scalar_irfft_untwiddle_t(in, tw, zf, h, slot);
}

// Every butterfly stage of one transform, stage by stage and block by
// block (the scalar reference for both precisions: the same tree
// evaluated in T).
template <typename T>
void scalar_fft_stages_t(std::complex<T>* data, const std::complex<T>* tw,
                         std::size_t m, bool conj_w) {
  const T s = conj_w ? T(-1) : T(1);
  for (std::size_t half = 1; half < m; half <<= 1) {
    const std::complex<T>* w = tw + (half - 1);
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
}

void scalar_fft_stages(cplx* data, const cplx* tw, std::size_t m,
                       bool conj_w) {
  scalar_fft_stages_t(data, tw, m, conj_w);
}

void scalar_fft_stages_f(cplxf* data, const cplxf* tw, std::size_t m,
                         bool conj_w) {
  scalar_fft_stages_t(data, tw, m, conj_w);
}

constexpr Kernels kScalarKernels{"scalar",
                                 scalar_cmul_inplace,
                                 scalar_dot,
                                 scalar_segment_dots,
                                 scalar_sdft_run,
                                 scalar_fft_stages,
                                 scalar_rfft_untwiddle,
                                 scalar_irfft_untwiddle,
                                 scalar_cmul_inplace_f,
                                 scalar_dot_f,
                                 scalar_segment_dots_f,
                                 scalar_sdft_run_f,
                                 scalar_fft_stages_f,
                                 scalar_rfft_untwiddle_f,
                                 scalar_irfft_untwiddle_f};

// Widest supported target among those compiled in, in preference order.
const Kernels* detect() {
#if defined(AQUA_SIMD_HAVE_AVX2)
  if (cpu_supports(Isa::kAvx2)) {
    if (const Kernels* k = avx2_kernels()) return k;
  }
#endif
#if defined(AQUA_SIMD_HAVE_NEON)
  if (cpu_supports(Isa::kNeon)) {
    if (const Kernels* k = neon_kernels()) return k;
  }
#endif
  return &kScalarKernels;
}

const Kernels* select() {
  // lint: det-ok(ISA override read once at startup; every kernel is bit-identical)
  if (const char* want = std::getenv("AQUA_SIMD")) {
    if (std::strcmp(want, "scalar") == 0) return &kScalarKernels;
    Isa isa = Isa::kScalar;
    bool known = false;
    if (std::strcmp(want, "avx2") == 0) {
      isa = Isa::kAvx2;
      known = true;
    } else if (std::strcmp(want, "neon") == 0) {
      isa = Isa::kNeon;
      known = true;
    }
    if (known) {
      if (const Kernels* k = kernels_for(isa)) return k;
      std::fprintf(stderr,
                   "aqua: AQUA_SIMD=%s not available on this build/CPU; "
                   "auto-detecting instead\n",
                   want);
    } else {
      std::fprintf(stderr,
                   "aqua: unknown AQUA_SIMD=%s (expected "
                   "scalar|avx2|neon); auto-detecting instead\n",
                   want);
    }
  }
  return detect();
}

}  // namespace

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;  // Advanced SIMD is mandatory on AArch64.
#else
      return false;
#endif
  }
  return false;
}

const Kernels* kernels_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarKernels;
    case Isa::kAvx2:
#if defined(AQUA_SIMD_HAVE_AVX2)
      if (cpu_supports(Isa::kAvx2)) return avx2_kernels();
#endif
      return nullptr;
    case Isa::kNeon:
#if defined(AQUA_SIMD_HAVE_NEON)
      if (cpu_supports(Isa::kNeon)) return neon_kernels();
#endif
      return nullptr;
  }
  return nullptr;
}

const Kernels& active() {
  // Decided once; `static` initialization is thread-safe and the tables are
  // immutable, so the selected pointer is safe to read from any thread.
  static const Kernels* chosen = select();
  return *chosen;
}

}  // namespace aqua::dsp::simd
