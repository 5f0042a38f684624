// Moving-window DFT power for the feedback/ID/ACK sliding-FFT decoders.
//
// The protocol's tone decoders (section 2.2.3) slide an n-point FFT across
// the capture and look only at the ~60 active in-band bins. Computing a full
// n-point transform per window position costs O(n log n) every few samples;
// this instead maintains, per bin b, the running sum
//     S_b(s) = sum_{i < n} x[s+i] * e^{-j 2 pi b (s+i) / n}
// updated in O(1) per sample (the phasor table has period n because b is an
// integer bin, so the subtracted and added terms share one table entry:
// S_b(s+1) = S_b(s) + (x[s+n] - x[s]) * T[(b*s) mod n]). |S_b(s)|^2 equals
// the squared magnitude of DFT bin b of the window at s — the window-start
// phase e^{-j 2 pi b s / n} the FFT convention drops has unit modulus.
//
// Bin b's phasor index (b*s) mod n depends on s only through s mod n, so a
// per-numerology table (SlidingDftTable) whose row p holds T[(b*p) mod n]
// for every active bin turns each per-sample update into ONE contiguous
// fused axpy, acc += d * row[(s-1) mod n]. The dispatched run kernel
// (dsp::simd::active().sdft_run) applies a whole run of those updates
// with the sums held in registers and writes the requested power rows
// straight from them: no gathers, no per-bin phase counters, no per-sample
// call. Rows and sums are laid out in blocks of one vector of bins,
// [re x kSdftBlock | im x kSdftBlock] per block, so a bin's real and
// imaginary parts meet in the same lane of two registers. The table is
// built once per process per shape and costs about window * num_bins * 2 *
// sizeof(T) bytes: 960 x 60 (the paper's numerology) is ~490 KB in float
// (64 bins padded), ~920 KB in double; the 10 Hz spacing of Fig. 17
// (4800 x 300) is ~11.7 MB in float. Rows p and n - p are conjugates up to
// the rounding of the base table, so halving the table would first need a
// base table made exactly conjugate-symmetric — a rounding change to every
// decode.
//
// The running sums are re-seeded periodically — against rounding drift
// growing with the capture length — from ONE packed real FFT of the window
// (rfft_into) instead of num_bins direct window accumulations. Only the
// rows a caller reads are written out (DftRowGrid), so the power matrix
// holds the decoder's search grid, not every window start.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/workspace.h"

namespace aqua::dsp {

/// Bin bank shape: an n-point window (`window`) and the contiguous run of
/// bins [first_bin, first_bin + num_bins) it tracks.
struct SlidingDftShape {
  std::size_t window = 0;
  std::size_t first_bin = 0;
  std::size_t num_bins = 0;
  bool operator==(const SlidingDftShape&) const = default;
};

/// Phasor rows of one bin bank in precision T: row p (p < window) holds
/// e^{-j 2 pi ((b p) mod window) / window} for b = first_bin + k, k <
/// num_bins, in blocks of B = simd::kSdftBlock bins (one 32-byte vector
/// of T): block j holds the real parts of bins jB .. jB+B-1, then their
/// imaginary parts; the bins past num_bins in the last block are zero.
/// The base phasors are generated in double and rounded once into T.
/// Immutable after construction; share it through sdft_table_of.
template <typename T>
class SlidingDftTable {
 public:
  /// Requires window >= 1 and first_bin + num_bins <= window.
  explicit SlidingDftTable(const SlidingDftShape& shape);

  const SlidingDftShape& shape() const { return shape_; }
  /// Values per row: 2 * B per block, whole blocks.
  std::size_t width() const { return width_; }
  /// Row p (< window), blocked as described above.
  const T* row(std::size_t p) const { return rows_.data() + p * width_; }
  /// Bin k's phasor in row p.
  std::complex<T> phasor(std::size_t p, std::size_t k) const;

 private:
  SlidingDftShape shape_;
  std::size_t width_ = 0;
  std::vector<T> rows_;
};

extern template class SlidingDftTable<double>;
extern template class SlidingDftTable<float>;

/// Shared per-shape table cache (the plan_of contract: built on first sight
/// of a shape, then a lock-free thread-local hit). Look the table up where
/// the owner is built, not inside a decode.
template <typename T = double>
const SlidingDftTable<T>& sdft_table_of(const SlidingDftShape& shape);

extern template const SlidingDftTable<double>& sdft_table_of<double>(
    const SlidingDftShape&);
extern template const SlidingDftTable<float>& sdft_table_of<float>(
    const SlidingDftShape&);

/// The window starts a moving-DFT pass writes out. Row (j, r) holds the
/// start j * step + offsets[r], for every j with
/// j * step + max(offsets) < count (count = number of window starts), so
/// every row of every offset exists. The default is the dense grid: every
/// start, one offset of 0.
struct DftRowGrid {
  /// Most offsets one grid may carry.
  static constexpr std::size_t kMaxOffsets = 8;
  static constexpr std::size_t kNoOffset[1] = {0};

  std::size_t step = 1;
  std::span<const std::size_t> offsets = kNoOffset;

  /// Number of j values (rows per offset) for `count` window starts.
  std::size_t rows(std::size_t count) const;
};

/// Squared DFT-bin magnitudes on a row grid of window starts:
///   out[((j * R) + r) * num_bins + k]
///       == |DFT_window(x[s..s+window))[first_bin + k]|^2,
///   s = j * step + offsets[r],  R = offsets.size()
/// up to rounding. The running sum still slides over every start, so a
/// row's value does not depend on the grid. `out.size()` must be
/// grid.rows(count) * R * num_bins with count = x.size() - window + 1.
/// Requires x.size() >= window, step >= 1 and 1..kMaxOffsets offsets.
void moving_dft_power(std::span<const double> x,
                      const SlidingDftTable<double>& table,
                      const DftRowGrid& grid, std::span<double> out,
                      Workspace& ws);

/// Single-precision overload for the float receive front end: float phasor
/// rows and running sums through the fp32 run kernel (twice the lanes per
/// vector). The periodic re-seed bounds the fp32 amplitude drift exactly as
/// in the double path.
void moving_dft_power(std::span<const float> x,
                      const SlidingDftTable<float>& table,
                      const DftRowGrid& grid, std::span<float> out,
                      Workspace& ws);

}  // namespace aqua::dsp
