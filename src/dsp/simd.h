// Runtime-dispatched SIMD kernels for the hot inner loops.
//
// The zero-allocation DSP core reduced every hot path to tight
// span-over-span passes; this header names those passes as six kernel
// families and selects the widest implementation the running CPU supports
// once at startup (AVX2+FMA on x86-64, NEON on AArch64, portable scalar
// anywhere):
//
//   * `cmul_inplace` — the overlap-save block multiply-accumulate: the
//     pointwise spectrum product at the center of every `FftFilter` block
//     and of every Bluestein transform.
//   * `dot` — the FIR dot product: `StreamingFir::process` and
//     short-template direct correlation.
//   * `segment_dots` — the preamble confirmation: the seven adjacent
//     segment dots and the window energy of a batch of window starts, each
//     value the exact `dot` it replaces, several starts' accumulator
//     chains interleaved so the metric no longer waits on FMA latency.
//   * `sdft_run` — the moving DFT: a run of sliding-DFT updates with every
//     bin's running sum held in registers (one fused multiply-add per
//     component per sample against the per-numerology phasor table), power
//     rows written straight from those registers where the decoder's grid
//     asks for them.
//   * `fft_stages` — every radix-2 butterfly stage of one power-of-two
//     transform on data the plan has already put in bit-reversed order:
//     twiddle multiply plus add/sub over every half-block pair, stage
//     after stage, in one call.
//   * `rfft_untwiddle` / `irfft_untwiddle` — the packed real transform's
//     O(n) split of a half-size complex spectrum into the real signal's
//     bins, and its exact inverse written into the half transform's
//     bit-reversed input slots.
//
// Each family has a double entry and a float entry (`*_f`), the float one
// running twice the lanes at the same vector width — that is the whole
// point of the single-precision receive front end.
//
// Every implementation of a kernel computes the SAME floating-point
// expression tree — fixed lane-accumulator structure (4 double / 8 float
// lanes for dot), fused multiply-adds (`std::fma` in the scalar build)
// where every target fuses, plain mul/add in the butterfly and the
// untwiddles where the legacy std::complex tree must be preserved, fixed
// reduction order — so the kernels are bit-identical across dispatch
// targets, not merely close. That is what lets the streaming invariants
// (chunking-invariant scanners, thread-count-invariant sweeps) survive
// vectorization, and it is asserted by tests/test_simd.cpp on every target
// buildable on the host. Bit-identity holds per precision: every target's
// float kernels agree with every other target's float kernels, but float
// results are of course not the double results.
//
// Dispatch is decided once (first use) from cpuid; `AQUA_SIMD=scalar`
// (or `avx2` / `neon`) overrides it for A/B measurement and testing.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/types.h"

namespace aqua::dsp::simd {

/// Window segments the preamble confirmation correlates: the preamble's
/// eight symbols (phy::OfdmParams::kPreambleSymbols).
inline constexpr std::size_t kSegments = 8;

/// Bins per block of the moving DFT's phasor rows and running sums: one
/// 32-byte vector of each precision (4 double / 8 float).
template <typename T>
inline constexpr std::size_t kSdftBlock = 32 / sizeof(T);

/// One power row a moving-DFT run writes: once `after` updates of the run
/// have been applied (0 = the sums the run starts from), |S_k|^2 of every
/// bin k goes to dst[k].
template <typename T>
struct SdftEmit {
  std::size_t after;
  T* dst;
};

/// Instruction-set targets a kernel table can be built for.
enum class Isa {
  kScalar,  ///< portable C++ (std::fma), always available
  kAvx2,    ///< x86-64 AVX2 + FMA
  kNeon,    ///< AArch64 Advanced SIMD
};

/// One resolved set of kernel entry points. All entries of a table come
/// from the same ISA; tables are immutable and process-lifetime.
struct Kernels {
  /// Human-readable target name ("scalar", "avx2", "neon").
  const char* name;

  /// Pointwise in-place complex product: y[i] *= x[i] for i < n.
  /// Per element: re' = fma(yr, xr, -(yi*xi)); im' = fma(yi, xr, yr*xi).
  void (*cmul_inplace)(cplx* y, const cplx* x, std::size_t n);

  /// Fused-multiply-add dot product sum_i a[i] * b[i].
  /// Element i accumulates into lane (i mod 4); lanes reduce as
  /// (l0 + l1) + (l2 + l3). Identical tree on every target.
  double (*dot)(const double* a, const double* b, std::size_t n);

  /// Preamble confirmation dots of `count` window starts w_p = x + p *
  /// stride. For each p, with kSegments segments of n samples:
  ///   out[p * kSegments + s] = dot(w_p + s * n, w_p + (s + 1) * n, n)
  ///                            for s < kSegments - 1,
  ///   out[p * kSegments + kSegments - 1] = dot(w_p, w_p, kSegments * n),
  /// every value bit-identical to that `dot` call (same lanes, same order
  /// within each lane, same reduction).
  void (*segment_dots)(const double* x, std::size_t n, std::size_t stride,
                       std::size_t count, double* out);

  /// A run of `len` moving-DFT updates. `acc` holds the running sums in
  /// blocks of kSdftBlock bins, [re of the block | im of the block] per
  /// block, ceil(bins / kSdftBlock) blocks; `rows` is the phasor row of the
  /// first update, laid out the same way, the next rows following
  /// contiguously. Update t (t < len) applies, to every component,
  ///   acc = fma(d_t, row_t, acc),  d_t = x[t + window] - x[t],
  /// and each of the `n_emits` emits (ascending `after`, each <= len)
  /// writes dst[k] = re_k * re_k + im_k * im_k (unfused) for k < bins.
  void (*sdft_run)(double* acc, const double* rows, std::size_t bins,
                   const double* x, std::size_t window, std::size_t len,
                   const SdftEmit<double>* emits, std::size_t n_emits);

  /// Every radix-2 butterfly stage of an `m`-point transform (m a power
  /// of two) over data already in bit-reversed order. Stage `half` runs
  /// for half = 1, 2, 4, ..., m/2, each stage complete before the next
  /// reads its outputs: for every block start s = 0, 2*half, ...,
  /// m - 2*half and every i < half, with a = data[s + i],
  /// b = data[s + half + i], w = tw[half - 1 + i] and
  /// w_i = conj_w ? conj(w) : w,
  ///   v = b * w_i   (plain mul/sub tree: vr = br*wr - bi*wi,
  ///                  vi = br*wi + bi*wr — NOT fused, matching the
  ///                  historical std::complex product so double FFT
  ///                  results are unchanged from the scalar era)
  ///   a = a + v;  b = a_old - v.
  /// The scalar entry runs exactly that loop and is the reference. A
  /// vector entry may run several stages per pass over a block, or finish
  /// the small stages of one cache-sized block before the next, since
  /// every element still meets the same butterflies in the same order.
  void (*fft_stages)(cplx* data, const cplx* tw, std::size_t m,
                     bool conj_w);

  /// Real-FFT untwiddle: the spectrum out[0 .. h] of a 2h-sample real
  /// signal from the h-point transform z of its samples packed in pairs,
  /// with tw[k] = e^{-j 2 pi k / 2h}. out[0] = (zr0 + zi0, 0), out[h] =
  /// (zr0 - zi0, 0), and for 0 < k < h, with (cr, ci) = conj(z[h - k]) (a
  /// sign flip), the unfused tree
  ///   er = 0.5 (zr + cr), ei = 0.5 (zi + ci),
  ///   or = 0.5 (zi - ci), oi = -0.5 (zr - cr),
  ///   out[k] = (er + (wr or - wi oi), ei + (wr oi + wi or)).
  void (*rfft_untwiddle)(const cplx* z, const cplx* tw, cplx* out,
                         std::size_t h);

  /// Exact inverse of rfft_untwiddle for 0 <= k < h, written to slot
  /// slot[k] of zf (slot k when `slot` is null): with (cr, ci) =
  /// conj(in[h - k]) and (wr, wi) = conj(tw[k]) (sign flips),
  ///   er = 0.5 (xr + cr), ei = 0.5 (xi + ci),
  ///   pr = 0.5 (xr - cr), pi = 0.5 (xi - ci),
  ///   or = wr pr - wi pi, oi = wr pi + wi pr,
  ///   zf[slot[k]] = (er - oi, ei + or).
  void (*irfft_untwiddle)(const cplx* in, const cplx* tw, cplx* zf,
                          std::size_t h, const std::uint32_t* slot);

  /// Single-precision twins of the kernels above. Same expression trees
  /// evaluated in float (std::fma -> fmaf; dot_f and segment_dots_f use 8
  /// lanes with the ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) reduction).
  void (*cmul_inplace_f)(cplxf* y, const cplxf* x, std::size_t n);
  float (*dot_f)(const float* a, const float* b, std::size_t n);
  void (*segment_dots_f)(const float* x, std::size_t n, std::size_t stride,
                         std::size_t count, float* out);
  void (*sdft_run_f)(float* acc, const float* rows, std::size_t bins,
                     const float* x, std::size_t window, std::size_t len,
                     const SdftEmit<float>* emits, std::size_t n_emits);
  void (*fft_stages_f)(cplxf* data, const cplxf* tw, std::size_t m,
                       bool conj_w);
  void (*rfft_untwiddle_f)(const cplxf* z, const cplxf* tw, cplxf* out,
                           std::size_t h);
  void (*irfft_untwiddle_f)(const cplxf* in, const cplxf* tw, cplxf* zf,
                            std::size_t h, const std::uint32_t* slot);
};

/// The kernel table selected for this process: the widest ISA the CPU
/// supports among those compiled in, unless overridden by the AQUA_SIMD
/// environment variable ("scalar", "avx2", "neon"; unknown or unsupported
/// values fall back to auto-detection with a stderr warning).
/// Decided on first call, then constant.
const Kernels& active();

/// Table for a specific target, or nullptr when that target is not
/// compiled into this binary or not runnable on this CPU. kScalar is
/// always available. Used by the equivalence tests and benches.
const Kernels* kernels_for(Isa isa);

/// True when the running CPU can execute `isa`.
bool cpu_supports(Isa isa);

// ---------------------------------------------------------------------------
// Precision-overloaded dispatch helpers so code templated on the sample type
// calls the right table entry without `if constexpr` at every site.
// ---------------------------------------------------------------------------

inline void cmul_inplace(const Kernels& k, cplx* y, const cplx* x,
                         std::size_t n) {
  k.cmul_inplace(y, x, n);
}
inline void cmul_inplace(const Kernels& k, cplxf* y, const cplxf* x,
                         std::size_t n) {
  k.cmul_inplace_f(y, x, n);
}

inline double dot(const Kernels& k, const double* a, const double* b,
                  std::size_t n) {
  return k.dot(a, b, n);
}
inline float dot(const Kernels& k, const float* a, const float* b,
                 std::size_t n) {
  return k.dot_f(a, b, n);
}

inline void segment_dots(const Kernels& k, const double* x, std::size_t n,
                         std::size_t stride, std::size_t count, double* out) {
  k.segment_dots(x, n, stride, count, out);
}
inline void segment_dots(const Kernels& k, const float* x, std::size_t n,
                         std::size_t stride, std::size_t count, float* out) {
  k.segment_dots_f(x, n, stride, count, out);
}

inline void sdft_run(const Kernels& k, double* acc, const double* rows,
                     std::size_t bins, const double* x, std::size_t window,
                     std::size_t len, const SdftEmit<double>* emits,
                     std::size_t n_emits) {
  k.sdft_run(acc, rows, bins, x, window, len, emits, n_emits);
}
inline void sdft_run(const Kernels& k, float* acc, const float* rows,
                     std::size_t bins, const float* x, std::size_t window,
                     std::size_t len, const SdftEmit<float>* emits,
                     std::size_t n_emits) {
  k.sdft_run_f(acc, rows, bins, x, window, len, emits, n_emits);
}

inline void fft_stages(const Kernels& k, cplx* data, const cplx* tw,
                       std::size_t m, bool conj_w) {
  k.fft_stages(data, tw, m, conj_w);
}
inline void fft_stages(const Kernels& k, cplxf* data, const cplxf* tw,
                       std::size_t m, bool conj_w) {
  k.fft_stages_f(data, tw, m, conj_w);
}

inline void rfft_untwiddle(const Kernels& k, const cplx* z, const cplx* tw,
                           cplx* out, std::size_t h) {
  k.rfft_untwiddle(z, tw, out, h);
}
inline void rfft_untwiddle(const Kernels& k, const cplxf* z, const cplxf* tw,
                           cplxf* out, std::size_t h) {
  k.rfft_untwiddle_f(z, tw, out, h);
}

inline void irfft_untwiddle(const Kernels& k, const cplx* in, const cplx* tw,
                            cplx* zf, std::size_t h,
                            const std::uint32_t* slot) {
  k.irfft_untwiddle(in, tw, zf, h, slot);
}
inline void irfft_untwiddle(const Kernels& k, const cplxf* in,
                            const cplxf* tw, cplxf* zf, std::size_t h,
                            const std::uint32_t* slot) {
  k.irfft_untwiddle_f(in, tw, zf, h, slot);
}

}  // namespace aqua::dsp::simd
