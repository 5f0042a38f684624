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
#include "dsp/simd_passes.h"

#if defined(AQUA_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>

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

// ---------------------------------------------------------------------------
// Real-lane kernels (confirmation dots, moving DFT): the passes of
// simd_passes.h over one traits struct per precision.
// ---------------------------------------------------------------------------

struct R64 {  // four double lanes
  using T = double;
  using V = __m256d;
  static constexpr std::size_t kLanes = 4;
  static V zero() { return _mm256_setzero_pd(); }
  static V load(const T* p) { return _mm256_loadu_pd(p); }
  static void store(T* p, V v) { _mm256_storeu_pd(p, v); }
  static V set1(T v) { return _mm256_set1_pd(v); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static T fma1(T a, T b, T c) { return __builtin_fma(a, b, c); }
  static T reduce(const T* l) { return (l[0] + l[1]) + (l[2] + l[3]); }
};

struct R32 {  // eight float lanes
  using T = float;
  using V = __m256;
  static constexpr std::size_t kLanes = 8;
  static V zero() { return _mm256_setzero_ps(); }
  static V load(const T* p) { return _mm256_loadu_ps(p); }
  static void store(T* p, V v) { _mm256_storeu_ps(p, v); }
  static V set1(T v) { return _mm256_set1_ps(v); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static T fma1(T a, T b, T c) { return __builtin_fmaf(a, b, c); }
  static T reduce(const T* l) {
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
  }
};

void avx2_segment_dots(const double* x, std::size_t n, std::size_t stride,
                       std::size_t count, double* out) {
  segment_dots_t<R64>(x, n, stride, count, out);
}

void avx2_segment_dots_f(const float* x, std::size_t n, std::size_t stride,
                         std::size_t count, float* out) {
  segment_dots_t<R32>(x, n, stride, count, out);
}

void avx2_sdft_run(double* acc, const double* rows, std::size_t bins,
                   const double* x, std::size_t window, std::size_t len,
                   const SdftEmit<double>* emits, std::size_t n_emits) {
  sdft_run_t<R64>(acc, rows, bins, x, window, len, emits, n_emits);
}

void avx2_sdft_run_f(float* acc, const float* rows, std::size_t bins,
                     const float* x, std::size_t window, std::size_t len,
                     const SdftEmit<float>* emits, std::size_t n_emits) {
  sdft_run_t<R32>(acc, rows, bins, x, window, len, emits, n_emits);
}

// ---------------------------------------------------------------------------
// Whole-transform butterfly stages. A traits struct per precision names the
// vector type and the few operations the passes need, so the pass
// structure below is written once for both.
// ---------------------------------------------------------------------------

struct F64x2 {  // two complex double per vector
  using C = cplx;
  using V = __m256d;
  static constexpr std::size_t kLanes = 2;
  static V load(const C* p) {
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
  }
  static void store(C* p, V v) {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V flip(V a, V mask) { return _mm256_xor_pd(a, mask); }
  // XOR-ing the imaginary lanes with -0.0 conjugates exactly (sign flip).
  static V conj_mask(bool conj_w) {
    return conj_w ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0) : _mm256_setzero_pd();
  }
  // v = b*w with the unfused legacy tree: even lanes br*wr - bi*wi, odd
  // lanes bi*wr + br*wi (separate mul then addsub — no contraction). `wv`
  // is already conjugated when the transform asks for it.
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V addsub(V a, V b) { return _mm256_addsub_pd(a, b); }
  static V set2(double re, double im) { return _mm256_set_pd(im, re, im, re); }
  static V swap(V a) { return _mm256_permute_pd(a, 0b0101); }  // [im re]
  static V rev(V a) { return _mm256_permute2f128_pd(a, a, 0x01); }
  // Stores lane j at p[slot[j]].
  static void scatter(C* p, const std::uint32_t* slot, V v) {
    _mm_storeu_pd(reinterpret_cast<double*>(p + slot[0]),
                  _mm256_castpd256_pd128(v));
    _mm_storeu_pd(reinterpret_cast<double*>(p + slot[1]),
                  _mm256_extractf128_pd(v, 1));
  }
  static V cmul(V bv, V wv) {
    const __m256d wr = _mm256_movedup_pd(wv);          // [wr0 wr0 wr1 wr1]
    const __m256d wi = _mm256_permute_pd(wv, 0b1111);  // [wi0 wi0 wi1 wi1]
    const __m256d bs = _mm256_permute_pd(bv, 0b0101);  // [bi0 br0 bi1 br1]
    const __m256d t = _mm256_mul_pd(bs, wi);           // [bi*wi br*wi ...]
    return _mm256_addsub_pd(_mm256_mul_pd(bv, wr), t);
  }
};

struct F32x4 {  // four complex float per vector
  using C = cplxf;
  using V = __m256;
  static constexpr std::size_t kLanes = 4;
  static V load(const C* p) {
    return _mm256_loadu_ps(reinterpret_cast<const float*>(p));
  }
  static void store(C* p, V v) {
    _mm256_storeu_ps(reinterpret_cast<float*>(p), v);
  }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V flip(V a, V mask) { return _mm256_xor_ps(a, mask); }
  static V conj_mask(bool conj_w) {
    return conj_w ? _mm256_set_ps(-0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f,
                                  -0.0f, 0.0f)
                  : _mm256_setzero_ps();
  }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V addsub(V a, V b) { return _mm256_addsub_ps(a, b); }
  static V set2(float re, float im) {
    return _mm256_set_ps(im, re, im, re, im, re, im, re);
  }
  static V swap(V a) { return _mm256_permute_ps(a, 0b10110001); }
  static V rev(V a) {  // a complex float is one 64-bit lane
    return _mm256_castpd_ps(
        _mm256_permute4x64_pd(_mm256_castps_pd(a), 0b00011011));
  }
  static void scatter(C* p, const std::uint32_t* slot, V v) {
    const __m128d lo = _mm256_castpd256_pd128(_mm256_castps_pd(v));
    const __m128d hi = _mm256_extractf128_pd(_mm256_castps_pd(v), 1);
    _mm_storel_pd(reinterpret_cast<double*>(p + slot[0]), lo);
    _mm_storeh_pd(reinterpret_cast<double*>(p + slot[1]), lo);
    _mm_storel_pd(reinterpret_cast<double*>(p + slot[2]), hi);
    _mm_storeh_pd(reinterpret_cast<double*>(p + slot[3]), hi);
  }
  static V cmul(V bv, V wv) {
    const __m256 wr = _mm256_moveldup_ps(wv);
    const __m256 wi = _mm256_movehdup_ps(wv);
    const __m256 bs = _mm256_permute_ps(bv, 0b10110001);
    const __m256 t = _mm256_mul_ps(bs, wi);
    return _mm256_addsub_ps(_mm256_mul_ps(bv, wr), t);
  }
};

// One butterfly per complex lane: (a, b) <- (a + b*w, a - b*w).
template <class P>
inline void bfly(typename P::V& a, typename P::V& b, typename P::V w) {
  const typename P::V v = P::cmul(b, w);
  const typename P::V u = a;
  a = P::add(u, v);
  b = P::sub(u, v);
}

// Stages 1 and 2 over [d, d + len) (len a multiple of 4), two complex
// double per vector. Stage 1 pairs neighbours, so the 128-bit halves of
// [x0 x1] [x2 x3] are regrouped into [x0 x2] / [x1 x3]; stage 2's pairs
// are then the halves of its outputs [y0 y2] / [y1 y3], regrouped into
// [y0 y1] / [y2 y3], which already are the output order.
inline void first_two_stages(cplx* d, const cplx* tw, std::size_t len,
                             __m256d conj) {
  const __m256d w1 = F64x2::flip(
      _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(tw)), conj);
  const __m256d w2 = F64x2::flip(F64x2::load(tw + 1), conj);
  for (std::size_t k = 0; k < len; k += 4) {
    const __m256d p0 = F64x2::load(d + k);
    const __m256d p1 = F64x2::load(d + k + 2);
    __m256d a = _mm256_permute2f128_pd(p0, p1, 0x20);  // [x0 x2]
    __m256d b = _mm256_permute2f128_pd(p0, p1, 0x31);  // [x1 x3]
    bfly<F64x2>(a, b, w1);                             // [y0 y2] [y1 y3]
    __m256d a2 = _mm256_permute2f128_pd(a, b, 0x20);   // [y0 y1]
    __m256d b2 = _mm256_permute2f128_pd(a, b, 0x31);   // [y2 y3]
    bfly<F64x2>(a2, b2, w2);
    F64x2::store(d + k, a2);
    F64x2::store(d + k + 2, b2);
  }
}

// Stages 1 and 2 over [d, d + len) (len a multiple of 8), four complex
// float per vector. A complex float is one 64-bit lane, so stage 1 splits
// [x0 x1 x2 x3] [x4 x5 x6 x7] with pd unpacks into [x0 x4 x2 x6] /
// [x1 x5 x3 x7] and the same unpacks restore the order; stage 2 then
// pairs the 128-bit halves: [y0 y1 y4 y5] / [y2 y3 y6 y7] against
// [w0 w1 w0 w1].
inline void first_two_stages(cplxf* d, const cplxf* tw, std::size_t len,
                             __m256 conj) {
  const __m256 w1 = F32x4::flip(
      _mm256_castpd_ps(
          _mm256_broadcast_sd(reinterpret_cast<const double*>(tw))),
      conj);
  const __m256 w2 = F32x4::flip(
      _mm256_broadcast_ps(reinterpret_cast<const __m128*>(tw + 1)), conj);
  for (std::size_t k = 0; k < len; k += 8) {
    const __m256d p0 = _mm256_castps_pd(F32x4::load(d + k));
    const __m256d p1 = _mm256_castps_pd(F32x4::load(d + k + 4));
    __m256 a = _mm256_castpd_ps(_mm256_unpacklo_pd(p0, p1));
    __m256 b = _mm256_castpd_ps(_mm256_unpackhi_pd(p0, p1));
    bfly<F32x4>(a, b, w1);
    const __m256d q0 = _mm256_unpacklo_pd(_mm256_castps_pd(a),
                                          _mm256_castps_pd(b));  // [y0..y3]
    const __m256d q1 = _mm256_unpackhi_pd(_mm256_castps_pd(a),
                                          _mm256_castps_pd(b));  // [y4..y7]
    __m256 a2 = _mm256_castpd_ps(_mm256_permute2f128_pd(q0, q1, 0x20));
    __m256 b2 = _mm256_castpd_ps(_mm256_permute2f128_pd(q0, q1, 0x31));
    bfly<F32x4>(a2, b2, w2);
    F32x4::store(d + k, _mm256_permute2f128_ps(a2, b2, 0x20));
    F32x4::store(d + k + 4, _mm256_permute2f128_ps(a2, b2, 0x31));
  }
}

// Stage h alone over [d, d + len); h a multiple of the lane count.
template <class P>
void stage_pass(typename P::C* d, const typename P::C* tw, std::size_t len,
                std::size_t h, typename P::V conj) {
  const typename P::C* w = tw + (h - 1);
  for (std::size_t s = 0; s < len; s += 2 * h) {
    typename P::C* p = d + s;
    for (std::size_t i = 0; i < h; i += P::kLanes) {
      typename P::V a = P::load(p + i);
      typename P::V b = P::load(p + h + i);
      bfly<P>(a, b, P::flip(P::load(w + i), conj));
      P::store(p + i, a);
      P::store(p + h + i, b);
    }
  }
}

// Stages h and 2h fused (radix-2^2): each group of four points passes
// stage h, then stage 2h, while it sits in registers — one load and one
// store per point for two stages.
template <class P>
void stage_pair_pass(typename P::C* d, const typename P::C* tw,
                     std::size_t len, std::size_t h, typename P::V conj) {
  const typename P::C* w1 = tw + (h - 1);
  const typename P::C* w2 = tw + (2 * h - 1);
  for (std::size_t s = 0; s < len; s += 4 * h) {
    typename P::C* p = d + s;
    for (std::size_t i = 0; i < h; i += P::kLanes) {
      typename P::V x0 = P::load(p + i);
      typename P::V x1 = P::load(p + h + i);
      typename P::V x2 = P::load(p + 2 * h + i);
      typename P::V x3 = P::load(p + 3 * h + i);
      const typename P::V wa = P::flip(P::load(w1 + i), conj);
      bfly<P>(x0, x1, wa);
      bfly<P>(x2, x3, wa);
      bfly<P>(x0, x2, P::flip(P::load(w2 + i), conj));
      bfly<P>(x1, x3, P::flip(P::load(w2 + h + i), conj));
      P::store(p + i, x0);
      P::store(p + h + i, x1);
      P::store(p + 2 * h + i, x2);
      P::store(p + 3 * h + i, x3);
    }
  }
}

// Stages h, 2h, 4h, ... below h_end over [d, d + len), fused in pairs
// while two remain.
template <class P>
void stage_run(typename P::C* d, const typename P::C* tw, std::size_t len,
               std::size_t h, std::size_t h_end, typename P::V conj) {
  for (; 2 * h < h_end; h *= 4) stage_pair_pass<P>(d, tw, len, h, conj);
  if (h < h_end) stage_pass<P>(d, tw, len, h, conj);
}

// Sub-transforms of this many bytes run all their stages before the next
// one starts, so those stages stay in L1 (48 KB per core on the x86-64
// parts this was tuned on); only the stages wider than a block make full
// passes over the whole array.
constexpr std::size_t kStageBlockBytes = 16384;

template <class P>
void avx2_fft_stages_t(typename P::C* data, const typename P::C* tw,
                       std::size_t m, bool conj_w) {
  if (m < 8) {  // too small for the vector passes: the reference loop
    fft_stages(*kernels_for(Isa::kScalar), data, tw, m, conj_w);
    return;
  }
  const typename P::V conj = P::conj_mask(conj_w);
  const std::size_t block =
      std::min(m, kStageBlockBytes / sizeof(typename P::C));
  for (std::size_t s = 0; s < m; s += block) {
    first_two_stages(data + s, tw, block, conj);
    stage_run<P>(data + s, tw, block, 4, block, conj);
  }
  stage_run<P>(data, tw, m, block, m, conj);
}

void avx2_fft_stages(cplx* data, const cplx* tw, std::size_t m,
                     bool conj_w) {
  avx2_fft_stages_t<F64x2>(data, tw, m, conj_w);
}

void avx2_fft_stages_f(cplxf* data, const cplxf* tw, std::size_t m,
                       bool conj_w) {
  avx2_fft_stages_t<F32x4>(data, tw, m, conj_w);
}

// Real-FFT untwiddles (simd_passes.h) over the butterfly traits.

void avx2_rfft_untwiddle(const cplx* z, const cplx* tw, cplx* out,
                         std::size_t h) {
  rfft_untwiddle_t<F64x2>(z, tw, out, h);
}

void avx2_rfft_untwiddle_f(const cplxf* z, const cplxf* tw, cplxf* out,
                           std::size_t h) {
  rfft_untwiddle_t<F32x4>(z, tw, out, h);
}

void avx2_irfft_untwiddle(const cplx* in, const cplx* tw, cplx* zf,
                          std::size_t h, const std::uint32_t* slot) {
  irfft_untwiddle_t<F64x2>(in, tw, zf, h, slot);
}

void avx2_irfft_untwiddle_f(const cplxf* in, const cplxf* tw, cplxf* zf,
                            std::size_t h, const std::uint32_t* slot) {
  irfft_untwiddle_t<F32x4>(in, tw, zf, h, slot);
}

constexpr Kernels kAvx2Kernels{"avx2",
                               avx2_cmul_inplace,
                               avx2_dot,
                               avx2_segment_dots,
                               avx2_sdft_run,
                               avx2_fft_stages,
                               avx2_rfft_untwiddle,
                               avx2_irfft_untwiddle,
                               avx2_cmul_inplace_f,
                               avx2_dot_f,
                               avx2_segment_dots_f,
                               avx2_sdft_run_f,
                               avx2_fft_stages_f,
                               avx2_rfft_untwiddle_f,
                               avx2_irfft_untwiddle_f};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace aqua::dsp::simd

#endif  // AQUA_SIMD_HAVE_AVX2
