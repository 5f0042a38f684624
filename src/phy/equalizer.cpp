#include "phy/equalizer.h"

#include <algorithm>
#include <stdexcept>

#include "dsp/linalg.h"

namespace aqua::phy {

namespace {

// Outputs (or lags) advanced together by one pass over the taps (or
// samples): independent accumulators, each keeping its own sum's order.
constexpr std::size_t kBlock = 4;

// out[j] = (sum over n in [max(j, shift), len) of a[n - shift] * b[n - j],
// in n order) / len for j < lags. Lags run kBlock at a time: each lag
// first takes the terms before the block's common start, then the block
// shares one pass over n.
void block_lag_sums(std::span<const double> a, std::span<const double> b,
                    std::size_t shift, std::size_t lags, std::size_t len,
                    std::span<double> out) {
  const double scale = static_cast<double>(len);
  std::size_t j0 = 0;
  for (; j0 + kBlock <= lags; j0 += kBlock) {
    const std::size_t common = std::max(j0 + kBlock - 1, shift);
    double acc[kBlock];
    for (std::size_t k = 0; k < kBlock; ++k) {
      acc[k] = 0.0;
      for (std::size_t n = std::max(j0 + k, shift); n < common && n < len;
           ++n) {
        acc[k] += a[n - shift] * b[n - j0 - k];
      }
    }
    for (std::size_t n = common; n < len; ++n) {
      const double an = a[n - shift];
      const double* bn = b.data() + (n - j0);  // bn[-k] = b[n - j0 - k]
      for (std::size_t k = 0; k < kBlock; ++k) {
        acc[k] += an * bn[-static_cast<std::ptrdiff_t>(k)];
      }
    }
    for (std::size_t k = 0; k < kBlock; ++k) out[j0 + k] = acc[k] / scale;
  }
  for (std::size_t j = j0; j < lags; ++j) {
    double acc = 0.0;
    for (std::size_t n = std::max(j, shift); n < len; ++n) {
      acc += a[n - shift] * b[n - j];
    }
    out[j] = acc / scale;
  }
}

}  // namespace

// lint: hot-alloc-ok(per-packet training: two O(taps) vectors and data-validation throws, once per received packet rather than per sample)
MmseEqualizer MmseEqualizer::train(std::span<const double> rx,
                                   std::span<const double> tx,
                                   std::size_t taps, std::size_t delay,
                                   double reg) {
  if (taps == 0) throw std::invalid_argument("MmseEqualizer: taps == 0");
  const std::size_t len = std::min(rx.size(), tx.size());
  if (len <= taps) throw std::invalid_argument("MmseEqualizer: training too short");

  // Autocorrelation of rx up to lag taps-1 (biased estimate keeps the
  // Toeplitz matrix positive semidefinite).
  std::vector<double> r(taps, 0.0);
  block_lag_sums(rx, rx, 0, taps, len, r);
  if (r[0] <= 0.0) throw std::invalid_argument("MmseEqualizer: silent input");
  r[0] *= (1.0 + reg);  // diagonal loading = MMSE noise term

  // Cross-correlation between the desired (delayed tx) and rx:
  // c[j] = E[ tx[n - delay] rx[n - j] ].
  std::vector<double> c(taps, 0.0);
  block_lag_sums(tx, rx, delay, taps, len, c);

  MmseEqualizer eq;
  eq.taps_ = dsp::levinson_solve(r, c);
  eq.delay_ = delay;
  return eq;
}

std::vector<double> MmseEqualizer::apply(std::span<const double> x) const {
  std::vector<double> out(x.size());
  apply_into(x, out);
  return out;
}

void MmseEqualizer::apply_into(std::span<const double> x,
                               std::span<double> out) const {
  if (out.size() != x.size()) {
    // lint: throw-ok(caller-bug guard before the sample loop; never fires on well-formed input)
    throw std::invalid_argument("MmseEqualizer: output size mismatch");
  }
  if (taps_.empty()) {  // identity
    std::copy(x.begin(), x.end(), out.begin());
    return;
  }
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(x.size());
  const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(delay_);
  const std::ptrdiff_t nt = static_cast<std::ptrdiff_t>(taps_.size());
  const double* g = taps_.data();
  // Edge outputs, whose window leaves the input, skip the missing samples.
  const auto edge = [&](std::ptrdiff_t m) {
    double acc = 0.0;
    for (std::ptrdiff_t j = 0; j < nt; ++j) {
      const std::ptrdiff_t idx = m + d - j;
      if (idx < 0 || idx >= nx) continue;
      acc += g[j] * x[static_cast<std::size_t>(idx)];
    }
    out[static_cast<std::size_t>(m)] = acc;
  };
  // Interior outputs [lo, hi) read x[m + d - j] in range for every tap, so
  // they run kBlock at a time with no bounds tests; each output's sum
  // still adds its taps in j order.
  const std::ptrdiff_t lo =
      std::min(std::max<std::ptrdiff_t>(nt - 1 - d, 0), nx);
  const std::ptrdiff_t hi = std::max(nx - d, lo);
  for (std::ptrdiff_t m = 0; m < lo; ++m) edge(m);
  std::ptrdiff_t m = lo;
  const std::ptrdiff_t block = static_cast<std::ptrdiff_t>(kBlock);
  for (; m + block <= hi; m += block) {
    const double* base = x.data() + (m + d);  // base[k - j] = x[m + k + d - j]
    double acc[kBlock] = {};
    for (std::ptrdiff_t j = 0; j < nt; ++j) {
      const double t = g[j];
      const double* p = base - j;
      for (std::size_t k = 0; k < kBlock; ++k) acc[k] += t * p[k];
    }
    std::copy(acc, acc + kBlock, out.begin() + m);
  }
  for (; m < nx; ++m) edge(m);
}

MmseEqualizer MmseEqualizer::identity() { return MmseEqualizer{}; }

}  // namespace aqua::phy
