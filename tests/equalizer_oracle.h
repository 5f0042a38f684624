// Reference MMSE equalizer: training, apply and the Levinson solve as
// straight per-output / per-lag loops with a bounds test on every tap and
// a freshly allocated forward vector per order. The production
// MmseEqualizer and dsp::levinson_solve block outputs, lags and buffers
// differently but must reproduce these results bit for bit: every sum
// keeps its terms, order and unfused multiply-adds.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace aqua::oracle {

inline std::vector<double> levinson_solve(std::span<const double> r,
                                          std::span<const double> b) {
  const std::size_t n = b.size();
  std::vector<double> f{1.0 / r[0]};
  std::vector<double> x{b[0] / r[0]};
  for (std::size_t m = 1; m < n; ++m) {
    double ef = 0.0;
    for (std::size_t i = 0; i < m; ++i) ef += r[m - i] * f[i];
    const double denom = 1.0 - ef * ef;
    if (std::abs(denom) < 1e-300) {
      throw std::runtime_error("levinson_solve: singular leading minor");
    }
    std::vector<double> fn(m + 1, 0.0);
    const double alpha = 1.0 / denom;
    const double beta = -ef / denom;
    for (std::size_t i = 0; i < m; ++i) fn[i] += alpha * f[i];
    for (std::size_t i = 0; i < m; ++i) fn[i + 1] += beta * f[m - 1 - i];
    f = std::move(fn);
    double ex = 0.0;
    for (std::size_t i = 0; i < m; ++i) ex += r[m - i] * x[i];
    const double scale = b[m] - ex;
    x.push_back(0.0);
    for (std::size_t i = 0; i <= m; ++i) x[i] += scale * f[m - i];
  }
  return x;
}

/// The normal equations' right and left sides: r (autocorrelation of rx,
/// diagonally loaded) and c (cross-correlation of delayed tx with rx).
struct Normal {
  std::vector<double> r, c;
};

inline Normal normal_equations(std::span<const double> rx,
                               std::span<const double> tx, std::size_t taps,
                               std::size_t delay, double reg) {
  const std::size_t len = std::min(rx.size(), tx.size());
  Normal ne{std::vector<double>(taps, 0.0), std::vector<double>(taps, 0.0)};
  for (std::size_t lag = 0; lag < taps; ++lag) {
    double acc = 0.0;
    for (std::size_t n = lag; n < len; ++n) acc += rx[n] * rx[n - lag];
    ne.r[lag] = acc / static_cast<double>(len);
  }
  ne.r[0] *= (1.0 + reg);
  for (std::size_t j = 0; j < taps; ++j) {
    double acc = 0.0;
    for (std::size_t n = std::max(j, delay); n < len; ++n) {
      acc += tx[n - delay] * rx[n - j];
    }
    ne.c[j] = acc / static_cast<double>(len);
  }
  return ne;
}

/// out[m] = sum_j g[j] x[m + delay - j], skipping samples outside x.
inline std::vector<double> equalizer_apply(std::span<const double> g,
                                 std::size_t delay,
                                 std::span<const double> x) {
  std::vector<double> out(x.size());
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(x.size());
  const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(delay);
  for (std::ptrdiff_t m = 0; m < nx; ++m) {
    double acc = 0.0;
    for (std::size_t j = 0; j < g.size(); ++j) {
      const std::ptrdiff_t idx = m + d - static_cast<std::ptrdiff_t>(j);
      if (idx < 0 || idx >= nx) continue;
      acc += g[j] * x[static_cast<std::size_t>(idx)];
    }
    out[static_cast<std::size_t>(m)] = acc;
  }
  return out;
}

}  // namespace aqua::oracle
