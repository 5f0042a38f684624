// Runtime-dispatched SIMD kernels for the hot inner loops.
//
// The zero-allocation DSP core reduced every hot path to tight
// span-over-span passes; this header names those passes as four kernel
// families and selects the widest implementation the running CPU supports
// once at startup (AVX2+FMA on x86-64, NEON on AArch64, portable scalar
// anywhere):
//
//   * `cmul_inplace` — the overlap-save block multiply-accumulate: the
//     pointwise spectrum product at the center of every `FftFilter` block
//     and of every Bluestein transform.
//   * `dot` — the FIR dot product: `StreamingFir::process`, the preamble
//     sliding segment metric, and short-template direct correlation.
//   * `sdft_update` — the sliding-DFT row update: one fused
//     multiply-accumulate per running-sum component per sample in
//     `moving_dft_power`'s recurrence, a contiguous axpy against one row
//     of the per-numerology phasor table (no gathers, no phase lanes).
//   * `fft_stages` — every radix-2 butterfly stage of one power-of-two
//     transform on data the plan has already put in bit-reversed order:
//     twiddle multiply plus add/sub over every half-block pair, stage
//     after stage, in one call.
//
// Each family has a double entry and a float entry (`*_f`), the float one
// running twice the lanes at the same vector width — that is the whole
// point of the single-precision receive front end.
//
// Every implementation of a kernel computes the SAME floating-point
// expression tree — fixed lane-accumulator structure (4 double / 8 float
// lanes for dot), fused multiply-adds (`std::fma` in the scalar build)
// where every target fuses, plain mul/add in the butterfly where the
// legacy std::complex tree must be preserved, fixed reduction order — so
// the kernels are bit-identical across dispatch targets, not merely
// close. That is what lets the streaming invariants (chunking-invariant
// scanners, thread-count-invariant sweeps) survive vectorization, and it
// is asserted by tests/test_simd.cpp on every target buildable on the
// host. Bit-identity holds per precision: every target's float kernels
// agree with every other target's float kernels, but float results are of
// course not the double results.
//
// Dispatch is decided once (first use) from cpuid; `AQUA_SIMD=scalar`
// (or `avx2` / `neon`) overrides it for A/B measurement and testing.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace aqua::dsp::simd {

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

  /// Sliding-DFT row update: acc[i] = fma(d, row[i], acc[i]) for i < n.
  /// `moving_dft_power` keeps every bin's running sum as one [re | im]
  /// array and passes the matching row of its phasor table
  /// (dsp::SlidingDftTable), so one call advances every bin by one sample.
  void (*sdft_update)(double* acc, const double* row, double d,
                      std::size_t n);

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

  /// Single-precision twins of the four kernels above. Same expression
  /// trees evaluated in float (std::fma -> fmaf; dot_f uses 8 lanes with
  /// the ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) reduction).
  void (*cmul_inplace_f)(cplxf* y, const cplxf* x, std::size_t n);
  float (*dot_f)(const float* a, const float* b, std::size_t n);
  void (*sdft_update_f)(float* acc, const float* row, float d,
                        std::size_t n);
  void (*fft_stages_f)(cplxf* data, const cplxf* tw, std::size_t m,
                       bool conj_w);
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

inline void sdft_update(const Kernels& k, double* acc, const double* row,
                        double d, std::size_t n) {
  k.sdft_update(acc, row, d, n);
}
inline void sdft_update(const Kernels& k, float* acc, const float* row,
                        float d, std::size_t n) {
  k.sdft_update_f(acc, row, d, n);
}

inline void fft_stages(const Kernels& k, cplx* data, const cplx* tw,
                       std::size_t m, bool conj_w) {
  k.fft_stages(data, tw, m, conj_w);
}
inline void fft_stages(const Kernels& k, cplxf* data, const cplxf* tw,
                       std::size_t m, bool conj_w) {
  k.fft_stages_f(data, tw, m, conj_w);
}

}  // namespace aqua::dsp::simd
