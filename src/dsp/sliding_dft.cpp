#include "dsp/sliding_dft.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "dsp/fft.h"
#include "dsp/plan_cache.h"
#include "dsp/simd.h"
#include "dsp/types.h"

namespace aqua::dsp {

namespace {

// Re-accumulate the running sums from scratch this often (in window
// starts). Bounds the rounding drift of the O(1) update at
// ~interval * eps * |x|max while adding less than one flop per output
// sample.
constexpr std::size_t kReaccumulateInterval = 4096;

struct ShapeHash {
  std::size_t operator()(const SlidingDftShape& s) const {
    const std::hash<std::size_t> h;
    return h(s.window) ^ (h(s.first_bin) * 31) ^ (h(s.num_bins) * 1009);
  }
};

}  // namespace

template <typename T>
SlidingDftTable<T>::SlidingDftTable(const SlidingDftShape& shape)
    : shape_(shape) {
  const std::size_t n = shape.window;
  if (n == 0) {
    throw std::invalid_argument("SlidingDftTable: window must be >= 1");
  }
  if (shape.first_bin + shape.num_bins > n) {
    throw std::invalid_argument("SlidingDftTable: bins exceed window");
  }
  // Base phasors e^{-j 2 pi m / n} in double, rounded once into T.
  std::vector<T> base_re(n), base_im(n);
  for (std::size_t m = 0; m < n; ++m) {
    const double a = -kTwoPi * static_cast<double>(m) / static_cast<double>(n);
    base_re[m] = static_cast<T>(std::cos(a));
    base_im[m] = static_cast<T>(std::sin(a));
  }
  // Row p, bin b: base[(b * p) mod n], the index walked with integer adds;
  // bin k sits in block k / B at lane k % B, the padding lanes stay zero.
  constexpr std::size_t kB = simd::kSdftBlock<T>;
  const std::size_t bins = shape.num_bins;
  width_ = (bins + kB - 1) / kB * 2 * kB;
  rows_.assign(n * width_, T(0));
  std::vector<std::size_t> idx(bins, 0);
  for (std::size_t p = 0; p < n; ++p) {
    T* row = rows_.data() + p * width_;
    for (std::size_t k = 0; k < bins; ++k) {
      T* blk = row + (k / kB) * 2 * kB;
      blk[k % kB] = base_re[idx[k]];
      blk[kB + k % kB] = base_im[idx[k]];
      idx[k] += shape.first_bin + k;
      if (idx[k] >= n) idx[k] -= n;
    }
  }
}

template <typename T>
std::complex<T> SlidingDftTable<T>::phasor(std::size_t p,
                                           std::size_t k) const {
  constexpr std::size_t kB = simd::kSdftBlock<T>;
  const T* blk = row(p) + (k / kB) * 2 * kB;
  return {blk[k % kB], blk[kB + k % kB]};
}

template class SlidingDftTable<double>;
template class SlidingDftTable<float>;

template <typename T>
const SlidingDftTable<T>& sdft_table_of(const SlidingDftShape& shape) {
  return cached_plan_of<SlidingDftTable<T>, SlidingDftShape, ShapeHash>(shape);
}

template const SlidingDftTable<double>& sdft_table_of<double>(
    const SlidingDftShape&);
template const SlidingDftTable<float>& sdft_table_of<float>(
    const SlidingDftShape&);

std::size_t DftRowGrid::rows(std::size_t count) const {
  if (step == 0 || offsets.empty()) return 0;
  const std::size_t max_off = *std::max_element(offsets.begin(), offsets.end());
  return count > max_off ? (count - 1 - max_off) / step + 1 : 0;
}

namespace {

// Shared implementation for both sample types: the running sums and the
// kernel runs are in T (the periodic re-seed bounds the fp32 drift).
template <typename T>
void moving_dft_power_impl(std::span<const T> x,
                           const SlidingDftTable<T>& table,
                           const DftRowGrid& grid, std::span<T> out,
                           Workspace& ws) {
  using C = std::complex<T>;
  const std::size_t window = table.shape().window;
  const std::size_t first_bin = table.shape().first_bin;
  const std::size_t num_bins = table.shape().num_bins;
  if (x.size() < window) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("moving_dft_power: window exceeds signal");
  }
  const std::size_t reps = grid.offsets.size();
  if (grid.step == 0 || reps == 0 || reps > DftRowGrid::kMaxOffsets) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("moving_dft_power: bad row grid");
  }
  const std::size_t count = x.size() - window + 1;
  const std::size_t rows = grid.rows(count);
  if (out.size() != rows * reps * num_bins) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("moving_dft_power: output size mismatch");
  }
  if (out.empty()) return;

  // Per-bin running sums S_b(s) in the blocked layout of the table rows,
  // so one kernel run advances every bin.
  constexpr std::size_t kB = simd::kSdftBlock<T>;
  Scratch<T> acc_s(ws, table.width());
  T* acc = acc_s->data();

  // Seed every bin at window start `s` (row q = s mod window) from ONE
  // packed real transform of the window (bins above window/2 are the
  // conjugate mirror), rotated by the window-start phase
  // e^{-j 2 pi b s / window} the running sum carries. Padding lanes hold 0.
  Scratch<C> spec_s(ws, window / 2 + 1);
  std::span<C> spec = spec_s.span();
  const auto seed = [&](std::size_t s, std::size_t q) {
    rfft_into(x.subspan(s, window), spec, ws);
    std::fill(acc, acc + table.width(), T(0));
    for (std::size_t k = 0; k < num_bins; ++k) {
      const std::size_t b = first_bin + k;
      const C z = b <= window / 2 ? spec[b] : std::conj(spec[window - b]);
      const C a = z * table.phasor(q, k);
      T* blk = acc + (k / kB) * 2 * kB;
      blk[k % kB] = a.real();
      blk[kB + k % kB] = a.imag();
    }
  };

  // Grid bookkeeping with counters: next[r] is the next start offset r
  // writes, into row slot[r]; an offset whose rows are all written parks
  // at `done`.
  constexpr std::size_t done = std::numeric_limits<std::size_t>::max();
  const std::size_t slots = rows * reps;
  std::array<std::size_t, DftRowGrid::kMaxOffsets> next{};
  std::array<std::size_t, DftRowGrid::kMaxOffsets> slot{};
  std::size_t last = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    next[r] = grid.offsets[r];
    slot[r] = r;
    last = std::max(last, (rows - 1) * grid.step + grid.offsets[r]);
  }

  // Runs of updates from window start s. A run ends at the last start,
  // before a re-seed, where the row index wraps, or after the last start
  // whose rows all fit its emit list (a start's rows never straddle two
  // runs); its emits are the grid rows whose starts it reaches, in start
  // order, each written once.
  constexpr std::size_t kMaxEmits = 64;
  std::array<simd::SdftEmit<T>, kMaxEmits> emits;
  const simd::Kernels& kern = simd::active();
  std::size_t next_seed = kReaccumulateInterval;
  std::size_t s = 0;  // the sums hold S(s)
  std::size_t p = 0;  // s mod window: the row of the update out of s
  seed(0, 0);
  for (;;) {
    std::size_t end = std::min({last, next_seed - 1, s + (window - p)});
    std::size_t n_emits = 0;
    for (;;) {
      std::size_t r_min = 0;
      for (std::size_t r = 1; r < reps; ++r) {
        if (next[r] < next[r_min]) r_min = r;
      }
      const std::size_t at = next[r_min];
      if (at > end) break;
      // A new start needs room for all `reps` of its rows.
      if (n_emits + reps > kMaxEmits && emits[n_emits - 1].after + s != at) {
        end = emits[n_emits - 1].after + s;
        break;
      }
      emits[n_emits++] = {at - s, out.data() + slot[r_min] * num_bins};
      slot[r_min] += reps;
      next[r_min] = slot[r_min] < slots ? at + grid.step : done;
    }
    simd::sdft_run(kern, acc, table.row(p), num_bins, x.data() + s, window,
                   end - s, emits.data(), n_emits);
    p += end - s;
    if (p == window) p = 0;
    s = end;
    if (s == last) break;
    if (s + 1 == next_seed) {
      // Re-seed instead of updating into next_seed.
      ++s;
      p = p + 1 == window ? 0 : p + 1;
      seed(s, p);
      next_seed += kReaccumulateInterval;
    }
  }
}

}  // namespace

void moving_dft_power(std::span<const double> x,
                      const SlidingDftTable<double>& table,
                      const DftRowGrid& grid, std::span<double> out,
                      Workspace& ws) {
  moving_dft_power_impl<double>(x, table, grid, out, ws);
}

void moving_dft_power(std::span<const float> x,
                      const SlidingDftTable<float>& table,
                      const DftRowGrid& grid, std::span<float> out,
                      Workspace& ws) {
  moving_dft_power_impl<float>(x, table, grid, out, ws);
}

}  // namespace aqua::dsp
