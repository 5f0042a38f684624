// AArch64 NEON kernel table. Advanced SIMD is part of the AArch64 baseline,
// so this TU needs no special compile flags — CMake simply includes it on
// ARM builds.
//
// The kernels reproduce the scalar reference expression tree exactly
// (vfmaq_f64 pairs with std::fma; the two 128-bit accumulators hold lanes
// {0,1} and {2,3} of the shared 4-lane structure; reductions run in the
// fixed (l0 + l1) + (l2 + l3) order), so results are bit-identical to the
// scalar kernels. The confirmation, moving-DFT and untwiddle passes come
// from simd_passes.h over the traits structs below.
#include "dsp/simd_internal.h"
#include "dsp/simd_passes.h"

#if defined(AQUA_SIMD_HAVE_NEON)

#include <arm_neon.h>

namespace aqua::dsp::simd {

namespace {

void neon_cmul_inplace(cplx* y, const cplx* x, std::size_t n) {
  auto* yd = reinterpret_cast<double*>(y);
  const auto* xd = reinterpret_cast<const double*>(x);
  for (std::size_t i = 0; i < n; ++i) {
    const float64x2_t yv = vld1q_f64(yd + 2 * i);       // [yr yi]
    const float64x2_t xv = vld1q_f64(xd + 2 * i);       // [xr xi]
    const float64x2_t ys = vextq_f64(yv, yv, 1);        // [yi yr]
    const float64x2_t xi = vdupq_laneq_f64(xv, 1);      // [xi xi]
    float64x2_t t = vmulq_f64(ys, xi);                  // [yi*xi yr*xi]
    // Negate lane 0 so the fused multiply-add below lands on
    // re = fma(yr, xr, -(yi*xi)), im = fma(yi, xr, yr*xi).
    t = vsetq_lane_f64(-vgetq_lane_f64(t, 0), t, 0);
    vst1q_f64(yd + 2 * i, vfmaq_laneq_f64(t, yv, xv, 0));
  }
}

double neon_dot(const double* a, const double* b, std::size_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);  // lanes {0, 1}: elements 4k, 4k+1
  float64x2_t acc23 = vdupq_n_f64(0.0);  // lanes {2, 3}: elements 4k+2, 4k+3
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc01 = vfmaq_f64(acc01, vld1q_f64(a + i), vld1q_f64(b + i));
    acc23 = vfmaq_f64(acc23, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
  }
  double lane[4] = {vgetq_lane_f64(acc01, 0), vgetq_lane_f64(acc01, 1),
                    vgetq_lane_f64(acc23, 0), vgetq_lane_f64(acc23, 1)};
  for (std::size_t i = n4; i < n; ++i) {
    lane[i & 3] = __builtin_fma(a[i], b[i], lane[i & 3]);
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

void neon_fft_stages(cplx* data, const cplx* tw, std::size_t m,
                     bool conj_w) {
  // XOR-ing with -0.0 flips signs exactly: conj_mask negates the imaginary
  // lane of w, neg_even negates the real lane of the cross product so a
  // plain add yields the br*wr - bi*wi / bi*wr + br*wi legacy tree.
  const std::uint64_t sign = 0x8000000000000000ull;
  const uint64x2_t conj_mask =
      conj_w ? vsetq_lane_u64(sign, vdupq_n_u64(0), 1) : vdupq_n_u64(0);
  const uint64x2_t neg_even = vsetq_lane_u64(sign, vdupq_n_u64(0), 0);
  // One complex per vector, so every stage runs the same per-element body
  // whatever its block size.
  for (std::size_t half = 1; half < m; half <<= 1) {
    const auto* wd = reinterpret_cast<const double*>(tw + (half - 1));
    for (std::size_t start = 0; start < m; start += 2 * half) {
      auto* ad = reinterpret_cast<double*>(data + start);
      auto* bd = reinterpret_cast<double*>(data + start + half);
      for (std::size_t i = 0; i < half; ++i) {
        // [wr wi]
        const float64x2_t wv = vreinterpretq_f64_u64(veorq_u64(
            vreinterpretq_u64_f64(vld1q_f64(wd + 2 * i)), conj_mask));
        const float64x2_t bv = vld1q_f64(bd + 2 * i);  // [br bi]
        const float64x2_t bs = vextq_f64(bv, bv, 1);   // [bi br]
        const float64x2_t m1 =
            vmulq_f64(bv, vdupq_laneq_f64(wv, 0));  // [br*wr bi*wr]
        float64x2_t m2 =
            vmulq_f64(bs, vdupq_laneq_f64(wv, 1));  // [bi*wi br*wi]
        m2 = vreinterpretq_f64_u64(
            veorq_u64(vreinterpretq_u64_f64(m2), neg_even));
        const float64x2_t v = vaddq_f64(m1, m2);  // [br*wr-bi*wi bi*wr+br*wi]
        const float64x2_t av = vld1q_f64(ad + 2 * i);
        vst1q_f64(ad + 2 * i, vaddq_f64(av, v));
        vst1q_f64(bd + 2 * i, vsubq_f64(av, v));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Single-precision twins: same trees, two complex (four fp32 lanes) per
// 128-bit vector; dot_f holds the 8-lane structure in two accumulators.
// ---------------------------------------------------------------------------

void neon_cmul_inplace_f(cplxf* y, const cplxf* x, std::size_t n) {
  auto* yf = reinterpret_cast<float*>(y);
  const auto* xf = reinterpret_cast<const float*>(x);
  const uint32x4_t neg_even = {0x80000000u, 0u, 0x80000000u, 0u};
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2) {
    const float32x4_t yv = vld1q_f32(yf + 2 * i);  // [yr0 yi0 yr1 yi1]
    const float32x4_t xv = vld1q_f32(xf + 2 * i);
    const float32x4_t xr = vtrn1q_f32(xv, xv);  // [xr0 xr0 xr1 xr1]
    const float32x4_t xi = vtrn2q_f32(xv, xv);  // [xi0 xi0 xi1 xi1]
    const float32x4_t ys = vrev64q_f32(yv);     // [yi0 yr0 yi1 yr1]
    float32x4_t t = vmulq_f32(ys, xi);          // [yi*xi yr*xi ...]
    t = vreinterpretq_f32_u32(veorq_u32(vreinterpretq_u32_f32(t), neg_even));
    vst1q_f32(yf + 2 * i, vfmaq_f32(t, yv, xr));
  }
  if (n2 < n) {
    const float yr = y[n2].real(), yi = y[n2].imag();
    const float xr = x[n2].real(), xi = x[n2].imag();
    y[n2] = {__builtin_fmaf(yr, xr, -(yi * xi)),
             __builtin_fmaf(yi, xr, yr * xi)};
  }
}

float neon_dot_f(const float* a, const float* b, std::size_t n) {
  float32x4_t acc03 = vdupq_n_f32(0.0f);  // lanes {0..3}
  float32x4_t acc47 = vdupq_n_f32(0.0f);  // lanes {4..7}
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    acc03 = vfmaq_f32(acc03, vld1q_f32(a + i), vld1q_f32(b + i));
    acc47 = vfmaq_f32(acc47, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  float lane[8] = {vgetq_lane_f32(acc03, 0), vgetq_lane_f32(acc03, 1),
                   vgetq_lane_f32(acc03, 2), vgetq_lane_f32(acc03, 3),
                   vgetq_lane_f32(acc47, 0), vgetq_lane_f32(acc47, 1),
                   vgetq_lane_f32(acc47, 2), vgetq_lane_f32(acc47, 3)};
  for (std::size_t i = n8; i < n; ++i) {
    lane[i & 7] = __builtin_fmaf(a[i], b[i], lane[i & 7]);
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

// Two butterflies on [a0 a1] / [b0 b1] with twiddles [w0 w1]: the same
// legacy tree as the double kernel, two complex per vector.
inline void neon_bfly_f(float32x4_t& av, float32x4_t& bv, float32x4_t wv) {
  const uint32x4_t neg_even = {0x80000000u, 0u, 0x80000000u, 0u};
  const float32x4_t wr = vtrn1q_f32(wv, wv);  // [wr0 wr0 wr1 wr1]
  const float32x4_t wi = vtrn2q_f32(wv, wv);  // [wi0 wi0 wi1 wi1]
  const float32x4_t bs = vrev64q_f32(bv);     // [bi0 br0 bi1 br1]
  const float32x4_t m1 = vmulq_f32(bv, wr);
  float32x4_t m2 = vmulq_f32(bs, wi);
  m2 = vreinterpretq_f32_u32(veorq_u32(vreinterpretq_u32_f32(m2), neg_even));
  const float32x4_t v = vaddq_f32(m1, m2);
  const float32x4_t u = av;
  av = vaddq_f32(u, v);
  bv = vsubq_f32(u, v);
}

void neon_fft_stages_f(cplxf* data, const cplxf* tw, std::size_t m,
                       bool conj_w) {
  const uint32x4_t conj_mask = conj_w
                                   ? uint32x4_t{0u, 0x80000000u, 0u,
                                                0x80000000u}
                                   : vdupq_n_u32(0u);
  if (m < 4) {  // one pair or none: the reference loop
    fft_stages(*kernels_for(Isa::kScalar), data, tw, m, conj_w);
    return;
  }
  auto* f = reinterpret_cast<float*>(data);
  // Stage 1: every block is one adjacent (a, b) pair sharing tw[0]. A
  // complex float is one 64-bit lane, so zipping the 64-bit lanes of
  // [a0 b0] [a1 b1] gives [a0 a1] / [b0 b1], and the same zips put the
  // results back.
  const float32x4_t w1 = vreinterpretq_f32_u32(veorq_u32(
      vreinterpretq_u32_f32(vreinterpretq_f32_f64(
          vld1q_dup_f64(reinterpret_cast<const double*>(tw)))),
      conj_mask));
  for (std::size_t k = 0; k < m; k += 4) {
    const float64x2_t p0 = vreinterpretq_f64_f32(vld1q_f32(f + 2 * k));
    const float64x2_t p1 = vreinterpretq_f64_f32(vld1q_f32(f + 2 * k + 4));
    float32x4_t av = vreinterpretq_f32_f64(vzip1q_f64(p0, p1));
    float32x4_t bv = vreinterpretq_f32_f64(vzip2q_f64(p0, p1));
    neon_bfly_f(av, bv, w1);
    const float64x2_t sd = vreinterpretq_f64_f32(av);
    const float64x2_t dd = vreinterpretq_f64_f32(bv);
    vst1q_f32(f + 2 * k, vreinterpretq_f32_f64(vzip1q_f64(sd, dd)));
    vst1q_f32(f + 2 * k + 4, vreinterpretq_f32_f64(vzip2q_f64(sd, dd)));
  }
  // Stages 2 ... m/2: two complex per vector, so every block is a whole
  // number of vectors.
  for (std::size_t half = 2; half < m; half <<= 1) {
    const auto* wf = reinterpret_cast<const float*>(tw + (half - 1));
    for (std::size_t start = 0; start < m; start += 2 * half) {
      float* af = f + 2 * start;
      float* bf = af + 2 * half;
      for (std::size_t i = 0; i < half; i += 2) {
        const float32x4_t wv = vreinterpretq_f32_u32(veorq_u32(
            vreinterpretq_u32_f32(vld1q_f32(wf + 2 * i)), conj_mask));
        float32x4_t av = vld1q_f32(af + 2 * i);
        float32x4_t bv = vld1q_f32(bf + 2 * i);
        neon_bfly_f(av, bv, wv);
        vst1q_f32(af + 2 * i, av);
        vst1q_f32(bf + 2 * i, bv);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Real-lane kernels (confirmation dots, moving DFT): the passes of
// simd_passes.h over the dot's lane structure, held in two registers
// (lanes {0, 1} / {2, 3} of the double dot, {0..3} / {4..7} of the float
// dot), exactly as neon_dot / neon_dot_f hold them.
// ---------------------------------------------------------------------------

struct N64 {  // four double lanes
  using T = double;
  struct V {
    float64x2_t lo, hi;
  };
  static constexpr std::size_t kLanes = 4;
  static V zero() { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
  static V load(const T* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
  static void store(T* p, V v) {
    vst1q_f64(p, v.lo);
    vst1q_f64(p + 2, v.hi);
  }
  static V set1(T v) { return {vdupq_n_f64(v), vdupq_n_f64(v)}; }
  static V fma(V a, V b, V c) {
    return {vfmaq_f64(c.lo, a.lo, b.lo), vfmaq_f64(c.hi, a.hi, b.hi)};
  }
  static V mul(V a, V b) {
    return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  static V add(V a, V b) {
    return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  static T fma1(T a, T b, T c) { return __builtin_fma(a, b, c); }
  static T reduce(const T* l) { return (l[0] + l[1]) + (l[2] + l[3]); }
};

struct N32 {  // eight float lanes
  using T = float;
  struct V {
    float32x4_t lo, hi;
  };
  static constexpr std::size_t kLanes = 8;
  static V zero() { return {vdupq_n_f32(0.0f), vdupq_n_f32(0.0f)}; }
  static V load(const T* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
  static void store(T* p, V v) {
    vst1q_f32(p, v.lo);
    vst1q_f32(p + 4, v.hi);
  }
  static V set1(T v) { return {vdupq_n_f32(v), vdupq_n_f32(v)}; }
  static V fma(V a, V b, V c) {
    return {vfmaq_f32(c.lo, a.lo, b.lo), vfmaq_f32(c.hi, a.hi, b.hi)};
  }
  static V mul(V a, V b) {
    return {vmulq_f32(a.lo, b.lo), vmulq_f32(a.hi, b.hi)};
  }
  static V add(V a, V b) {
    return {vaddq_f32(a.lo, b.lo), vaddq_f32(a.hi, b.hi)};
  }
  static T fma1(T a, T b, T c) { return __builtin_fmaf(a, b, c); }
  static T reduce(const T* l) {
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
  }
};

void neon_segment_dots(const double* x, std::size_t n, std::size_t stride,
                       std::size_t count, double* out) {
  segment_dots_t<N64>(x, n, stride, count, out);
}

void neon_segment_dots_f(const float* x, std::size_t n, std::size_t stride,
                         std::size_t count, float* out) {
  segment_dots_t<N32>(x, n, stride, count, out);
}

void neon_sdft_run(double* acc, const double* rows, std::size_t bins,
                   const double* x, std::size_t window, std::size_t len,
                   const SdftEmit<double>* emits, std::size_t n_emits) {
  sdft_run_t<N64>(acc, rows, bins, x, window, len, emits, n_emits);
}

void neon_sdft_run_f(float* acc, const float* rows, std::size_t bins,
                     const float* x, std::size_t window, std::size_t len,
                     const SdftEmit<float>* emits, std::size_t n_emits) {
  sdft_run_t<N32>(acc, rows, bins, x, window, len, emits, n_emits);
}

// ---------------------------------------------------------------------------
// Real-FFT untwiddles (simd_passes.h): one complex double or two complex
// float per register. Sign flips are XORs with -0.0; addsub negates the
// even lanes of its second operand and adds, which is the subtraction
// bit for bit.
// ---------------------------------------------------------------------------

struct NC64 {  // one complex double per vector
  using C = cplx;
  using V = float64x2_t;
  static constexpr std::size_t kLanes = 1;
  static V load(const C* p) {
    return vld1q_f64(reinterpret_cast<const double*>(p));
  }
  static void store(C* p, V v) { vst1q_f64(reinterpret_cast<double*>(p), v); }
  static V flip(V a, V mask) {
    return vreinterpretq_f64_u64(
        veorq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(mask)));
  }
  static V conj_mask(bool conj) {
    return conj ? vreinterpretq_f64_u64(vsetq_lane_u64(
                      0x8000000000000000ull, vdupq_n_u64(0), 1))
                : vdupq_n_f64(0.0);
  }
  static V set2(double re, double im) { return V{re, im}; }
  static V mul(V a, V b) { return vmulq_f64(a, b); }
  static V add(V a, V b) { return vaddq_f64(a, b); }
  static V sub(V a, V b) { return vsubq_f64(a, b); }
  static V addsub(V a, V b) {
    const V neg_even = vreinterpretq_f64_u64(
        vsetq_lane_u64(0x8000000000000000ull, vdupq_n_u64(0), 0));
    return vaddq_f64(a, flip(b, neg_even));
  }
  static V swap(V a) { return vextq_f64(a, a, 1); }
  static V rev(V a) { return a; }
  static void scatter(C* p, const std::uint32_t* slot, V v) {
    store(p + slot[0], v);
  }
  static V cmul(V bv, V wv) {
    const V m1 = vmulq_f64(bv, vdupq_laneq_f64(wv, 0));  // [br*wr bi*wr]
    const V m2 = vmulq_f64(swap(bv), vdupq_laneq_f64(wv, 1));  // [bi*wi br*wi]
    return addsub(m1, m2);
  }
};

struct NC32 {  // two complex float per vector
  using C = cplxf;
  using V = float32x4_t;
  static constexpr std::size_t kLanes = 2;
  static V load(const C* p) {
    return vld1q_f32(reinterpret_cast<const float*>(p));
  }
  static void store(C* p, V v) { vst1q_f32(reinterpret_cast<float*>(p), v); }
  static V flip(V a, V mask) {
    return vreinterpretq_f32_u32(
        veorq_u32(vreinterpretq_u32_f32(a), vreinterpretq_u32_f32(mask)));
  }
  static V conj_mask(bool conj) {
    const uint32x4_t m = {0u, 0x80000000u, 0u, 0x80000000u};
    return conj ? vreinterpretq_f32_u32(m) : vdupq_n_f32(0.0f);
  }
  static V set2(float re, float im) { return V{re, im, re, im}; }
  static V mul(V a, V b) { return vmulq_f32(a, b); }
  static V add(V a, V b) { return vaddq_f32(a, b); }
  static V sub(V a, V b) { return vsubq_f32(a, b); }
  static V addsub(V a, V b) {
    const uint32x4_t m = {0x80000000u, 0u, 0x80000000u, 0u};
    return vaddq_f32(a, flip(b, vreinterpretq_f32_u32(m)));
  }
  static V swap(V a) { return vrev64q_f32(a); }
  static V rev(V a) { return vextq_f32(a, a, 2); }  // [c1 c0]
  static void scatter(C* p, const std::uint32_t* slot, V v) {
    vst1_f32(reinterpret_cast<float*>(p + slot[0]), vget_low_f32(v));
    vst1_f32(reinterpret_cast<float*>(p + slot[1]), vget_high_f32(v));
  }
  static V cmul(V bv, V wv) {
    const V m1 = vmulq_f32(bv, vtrn1q_f32(wv, wv));        // [br*wr bi*wr]
    const V m2 = vmulq_f32(swap(bv), vtrn2q_f32(wv, wv));  // [bi*wi br*wi]
    return addsub(m1, m2);
  }
};

void neon_rfft_untwiddle(const cplx* z, const cplx* tw, cplx* out,
                         std::size_t h) {
  rfft_untwiddle_t<NC64>(z, tw, out, h);
}

void neon_rfft_untwiddle_f(const cplxf* z, const cplxf* tw, cplxf* out,
                           std::size_t h) {
  rfft_untwiddle_t<NC32>(z, tw, out, h);
}

void neon_irfft_untwiddle(const cplx* in, const cplx* tw, cplx* zf,
                          std::size_t h, const std::uint32_t* slot) {
  irfft_untwiddle_t<NC64>(in, tw, zf, h, slot);
}

void neon_irfft_untwiddle_f(const cplxf* in, const cplxf* tw, cplxf* zf,
                            std::size_t h, const std::uint32_t* slot) {
  irfft_untwiddle_t<NC32>(in, tw, zf, h, slot);
}

constexpr Kernels kNeonKernels{"neon",
                               neon_cmul_inplace,
                               neon_dot,
                               neon_segment_dots,
                               neon_sdft_run,
                               neon_fft_stages,
                               neon_rfft_untwiddle,
                               neon_irfft_untwiddle,
                               neon_cmul_inplace_f,
                               neon_dot_f,
                               neon_segment_dots_f,
                               neon_sdft_run_f,
                               neon_fft_stages_f,
                               neon_rfft_untwiddle_f,
                               neon_irfft_untwiddle_f};

}  // namespace

const Kernels* neon_kernels() { return &kNeonKernels; }

}  // namespace aqua::dsp::simd

#endif  // AQUA_SIMD_HAVE_NEON
