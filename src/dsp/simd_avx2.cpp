// AVX2 + FMA kernel table. This translation unit is the only one compiled
// with -mavx2 -mfma (see CMakeLists.txt); it is entered only after
// cpu_supports(Isa::kAvx2) confirmed the instructions exist, so the rest
// of the library stays runnable on any x86-64.
//
// Every kernel reproduces the scalar reference expression tree exactly:
// the vector FMAs pair with std::fma in the scalar build, lane l
// accumulates elements i with i mod 4 == l, and reductions run in the
// fixed (l0 + l1) + (l2 + l3) order — so results are bit-identical to the
// scalar kernels, which tests/test_simd.cpp asserts.
#include "dsp/simd_internal.h"

#if defined(AQUA_SIMD_HAVE_AVX2)

#include <immintrin.h>

namespace aqua::dsp::simd {

namespace {

void avx2_cmul_inplace(cplx* y, const cplx* x, std::size_t n) {
  auto* yd = reinterpret_cast<double*>(y);
  const auto* xd = reinterpret_cast<const double*>(x);
  const std::size_t n2 = n & ~std::size_t{1};  // two complex per vector
  for (std::size_t i = 0; i < n2; i += 2) {
    const __m256d yv = _mm256_loadu_pd(yd + 2 * i);
    const __m256d xv = _mm256_loadu_pd(xd + 2 * i);
    const __m256d xr = _mm256_movedup_pd(xv);          // [xr0 xr0 xr1 xr1]
    const __m256d xi = _mm256_permute_pd(xv, 0b1111);  // [xi0 xi0 xi1 xi1]
    const __m256d ys = _mm256_permute_pd(yv, 0b0101);  // [yi0 yr0 yi1 yr1]
    const __m256d t = _mm256_mul_pd(ys, xi);           // [yi*xi yr*xi ...]
    // even lanes: fma(yr, xr, -(yi*xi)); odd lanes: fma(yi, xr, yr*xi).
    _mm256_storeu_pd(yd + 2 * i, _mm256_fmaddsub_pd(yv, xr, t));
  }
  if (n2 < n) {
    const double yr = y[n2].real(), yi = y[n2].imag();
    const double xr = x[n2].real(), xi = x[n2].imag();
    y[n2] = {__builtin_fma(yr, xr, -(yi * xi)), __builtin_fma(yi, xr, yr * xi)};
  }
}

double avx2_dot(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (std::size_t i = n4; i < n; ++i) {
    lane[i & 3] = __builtin_fma(a[i], b[i], lane[i & 3]);
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

void avx2_sdft_update(double* acc, const double* row, double d,
                      std::size_t n) {
  const __m256d dv = _mm256_set1_pd(d);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    _mm256_storeu_pd(acc + i, _mm256_fmadd_pd(dv, _mm256_loadu_pd(row + i),
                                              _mm256_loadu_pd(acc + i)));
  }
  for (std::size_t i = n4; i < n; ++i) {
    acc[i] = __builtin_fma(d, row[i], acc[i]);
  }
}

// v = b*w with the unfused legacy tree for two complex per vector: even
// lanes br*wr - bi*wi, odd lanes bi*wr + br*wi (separate mul then addsub —
// no contraction). `wv` is already conjugated when the stage asks for it.
inline __m256d avx2_legacy_cmul(__m256d bv, __m256d wv) {
  const __m256d wr = _mm256_movedup_pd(wv);          // [wr0 wr0 wr1 wr1]
  const __m256d wi = _mm256_permute_pd(wv, 0b1111);  // [wi0 wi0 wi1 wi1]
  const __m256d bs = _mm256_permute_pd(bv, 0b0101);  // [bi0 br0 bi1 br1]
  const __m256d t = _mm256_mul_pd(bs, wi);           // [bi*wi br*wi ...]
  return _mm256_addsub_pd(_mm256_mul_pd(bv, wr), t);
}

// Scalar reference body for one butterfly (the odd tail of a block).
inline void avx2_butterfly_one(cplx& a, cplx& b, const cplx& w, double s) {
  const double wr = w.real(), wi = s * w.imag();
  const double br = b.real(), bi = b.imag();
  const double vr = br * wr - bi * wi;
  const double vi = br * wi + bi * wr;
  const double ur = a.real(), ui = a.imag();
  a = {ur + vr, ui + vi};
  b = {ur - vr, ui - vi};
}

void avx2_butterfly(cplx* data, const cplx* w, std::size_t m,
                    std::size_t half, bool conj_w) {
  auto* d = reinterpret_cast<double*>(data);
  const auto* wd = reinterpret_cast<const double*>(w);
  const double s = conj_w ? -1.0 : 1.0;
  // XOR-ing the imaginary lanes with -0.0 conjugates exactly (sign flip).
  const __m256d conj_mask = conj_w ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
                                   : _mm256_setzero_pd();
  if (half == 1) {
    // Every block is one adjacent (a, b) pair sharing w[0]: gather two
    // blocks' a's into one vector and their b's into another.
    const __m256d wv = _mm256_xor_pd(
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(wd)), conj_mask);
    const std::size_t m4 = m & ~std::size_t{3};
    for (std::size_t k = 0; k < m4; k += 4) {
      const __m256d p0 = _mm256_loadu_pd(d + 2 * k);      // [a0 b0]
      const __m256d p1 = _mm256_loadu_pd(d + 2 * k + 4);  // [a1 b1]
      const __m256d av = _mm256_permute2f128_pd(p0, p1, 0x20);  // [a0 a1]
      const __m256d bv = _mm256_permute2f128_pd(p0, p1, 0x31);  // [b0 b1]
      const __m256d v = avx2_legacy_cmul(bv, wv);
      const __m256d sum = _mm256_add_pd(av, v);
      const __m256d dif = _mm256_sub_pd(av, v);
      _mm256_storeu_pd(d + 2 * k, _mm256_permute2f128_pd(sum, dif, 0x20));
      _mm256_storeu_pd(d + 2 * k + 4, _mm256_permute2f128_pd(sum, dif, 0x31));
    }
    for (std::size_t k = m4; k < m; k += 2) {
      avx2_butterfly_one(data[k], data[k + 1], w[0], s);
    }
    return;
  }
  const std::size_t n2 = half & ~std::size_t{1};  // two complex per vector
  for (std::size_t start = 0; start < m; start += 2 * half) {
    double* ad = d + 2 * start;
    double* bd = ad + 2 * half;
    for (std::size_t i = 0; i < n2; i += 2) {
      const __m256d wv =
          _mm256_xor_pd(_mm256_loadu_pd(wd + 2 * i), conj_mask);
      const __m256d v = avx2_legacy_cmul(_mm256_loadu_pd(bd + 2 * i), wv);
      const __m256d av = _mm256_loadu_pd(ad + 2 * i);
      _mm256_storeu_pd(ad + 2 * i, _mm256_add_pd(av, v));
      _mm256_storeu_pd(bd + 2 * i, _mm256_sub_pd(av, v));
    }
    for (std::size_t i = n2; i < half; ++i) {
      avx2_butterfly_one(data[start + i], data[start + half + i], w[i], s);
    }
  }
}

// ---------------------------------------------------------------------------
// Single-precision twins: same trees, eight fp32 lanes per vector.
// ---------------------------------------------------------------------------

void avx2_cmul_inplace_f(cplxf* y, const cplxf* x, std::size_t n) {
  auto* yf = reinterpret_cast<float*>(y);
  const auto* xf = reinterpret_cast<const float*>(x);
  const std::size_t n4 = n & ~std::size_t{3};  // four complex per vector
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256 yv = _mm256_loadu_ps(yf + 2 * i);
    const __m256 xv = _mm256_loadu_ps(xf + 2 * i);
    const __m256 xr = _mm256_moveldup_ps(xv);            // [xr0 xr0 ...]
    const __m256 xi = _mm256_movehdup_ps(xv);            // [xi0 xi0 ...]
    const __m256 ys = _mm256_permute_ps(yv, 0b10110001);  // [yi0 yr0 ...]
    const __m256 t = _mm256_mul_ps(ys, xi);               // [yi*xi yr*xi ...]
    _mm256_storeu_ps(yf + 2 * i, _mm256_fmaddsub_ps(yv, xr, t));
  }
  for (std::size_t i = n4; i < n; ++i) {
    const float yr = y[i].real(), yi = y[i].imag();
    const float xr = x[i].real(), xi = x[i].imag();
    y[i] = {__builtin_fmaf(yr, xr, -(yi * xi)),
            __builtin_fmaf(yi, xr, yr * xi)};
  }
}

float avx2_dot_f(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  alignas(32) float lane[8];
  _mm256_store_ps(lane, acc);
  for (std::size_t i = n8; i < n; ++i) {
    lane[i & 7] = __builtin_fmaf(a[i], b[i], lane[i & 7]);
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

void avx2_sdft_update_f(float* acc, const float* row, float d,
                        std::size_t n) {
  const __m256 dv = _mm256_set1_ps(d);
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(acc + i, _mm256_fmadd_ps(dv, _mm256_loadu_ps(row + i),
                                              _mm256_loadu_ps(acc + i)));
  }
  for (std::size_t i = n8; i < n; ++i) {
    acc[i] = __builtin_fmaf(d, row[i], acc[i]);
  }
}

// Float twin of avx2_legacy_cmul: four complex per vector.
inline __m256 avx2_legacy_cmul_f(__m256 bv, __m256 wv) {
  const __m256 wr = _mm256_moveldup_ps(wv);
  const __m256 wi = _mm256_movehdup_ps(wv);
  const __m256 bs = _mm256_permute_ps(bv, 0b10110001);
  const __m256 t = _mm256_mul_ps(bs, wi);
  return _mm256_addsub_ps(_mm256_mul_ps(bv, wr), t);
}

inline void avx2_butterfly_one_f(cplxf& a, cplxf& b, const cplxf& w,
                                 float s) {
  const float wr = w.real(), wi = s * w.imag();
  const float br = b.real(), bi = b.imag();
  const float vr = br * wr - bi * wi;
  const float vi = br * wi + bi * wr;
  const float ur = a.real(), ui = a.imag();
  a = {ur + vr, ui + vi};
  b = {ur - vr, ui - vi};
}

void avx2_butterfly_f(cplxf* data, const cplxf* w, std::size_t m,
                      std::size_t half, bool conj_w) {
  auto* f = reinterpret_cast<float*>(data);
  const auto* wf = reinterpret_cast<const float*>(w);
  const float s = conj_w ? -1.0f : 1.0f;
  const __m256 conj_mask =
      conj_w ? _mm256_set_ps(-0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f,
                             0.0f)
             : _mm256_setzero_ps();
  const std::size_t m8 = m & ~std::size_t{7};
  if (half == 1) {
    // Four (a, b) pairs per two vectors. A complex float is one 64-bit
    // lane, so the pd unpacks split a's from b's ([a0 a2 a1 a3] /
    // [b0 b2 b1 b3]) and the same unpacks put them back.
    const __m256 wv = _mm256_xor_ps(
        _mm256_castpd_ps(
            _mm256_broadcast_sd(reinterpret_cast<const double*>(wf))),
        conj_mask);
    for (std::size_t k = 0; k < m8; k += 8) {
      const __m256d p0 = _mm256_castps_pd(_mm256_loadu_ps(f + 2 * k));
      const __m256d p1 = _mm256_castps_pd(_mm256_loadu_ps(f + 2 * k + 8));
      const __m256 av = _mm256_castpd_ps(_mm256_unpacklo_pd(p0, p1));
      const __m256 bv = _mm256_castpd_ps(_mm256_unpackhi_pd(p0, p1));
      const __m256 v = avx2_legacy_cmul_f(bv, wv);
      const __m256d sum = _mm256_castps_pd(_mm256_add_ps(av, v));
      const __m256d dif = _mm256_castps_pd(_mm256_sub_ps(av, v));
      _mm256_storeu_ps(f + 2 * k,
                       _mm256_castpd_ps(_mm256_unpacklo_pd(sum, dif)));
      _mm256_storeu_ps(f + 2 * k + 8,
                       _mm256_castpd_ps(_mm256_unpackhi_pd(sum, dif)));
    }
    for (std::size_t k = m8; k < m; k += 2) {
      avx2_butterfly_one_f(data[k], data[k + 1], w[0], s);
    }
    return;
  }
  const std::size_t n4 = half & ~std::size_t{3};  // four complex per vector
  for (std::size_t start = 0; start < m; start += 2 * half) {
    float* af = f + 2 * start;
    float* bf = af + 2 * half;
    for (std::size_t i = 0; i < n4; i += 4) {
      const __m256 wv = _mm256_xor_ps(_mm256_loadu_ps(wf + 2 * i), conj_mask);
      const __m256 v = avx2_legacy_cmul_f(_mm256_loadu_ps(bf + 2 * i), wv);
      const __m256 av = _mm256_loadu_ps(af + 2 * i);
      _mm256_storeu_ps(af + 2 * i, _mm256_add_ps(av, v));
      _mm256_storeu_ps(bf + 2 * i, _mm256_sub_ps(av, v));
    }
    for (std::size_t i = n4; i < half; ++i) {
      avx2_butterfly_one_f(data[start + i], data[start + half + i], w[i], s);
    }
  }
}

constexpr Kernels kAvx2Kernels{"avx2",
                               avx2_cmul_inplace,
                               avx2_dot,
                               avx2_sdft_update,
                               avx2_butterfly,
                               avx2_cmul_inplace_f,
                               avx2_dot_f,
                               avx2_sdft_update_f,
                               avx2_butterfly_f};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace aqua::dsp::simd

#endif  // AQUA_SIMD_HAVE_AVX2
