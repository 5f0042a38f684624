#include "dsp/linalg.h"

#include <cmath>
#include <stdexcept>

namespace aqua::dsp {

std::vector<double> cholesky_solve(std::span<const double> a,
                                   std::span<const double> b, std::size_t n) {
  if (a.size() != n * n || b.size() != n) {
    throw std::invalid_argument("cholesky_solve: dimension mismatch");
  }
  // Factor A = L L^T (lower-triangular L stored dense).
  std::vector<double> l(n * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= l[j * n + k] * l[j * n + k];
    if (diag <= 0.0) throw std::runtime_error("cholesky_solve: not SPD");
    l[j * n + j] = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) v -= l[i * n + k] * l[j * n + k];
      l[i * n + j] = v / l[j * n + j];
    }
  }
  // Forward substitution L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l[i * n + k] * y[k];
    y[i] = v / l[i * n + i];
  }
  // Back substitution L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l[k * n + ii] * x[k];
    x[ii] = v / l[ii * n + ii];
  }
  return x;
}

std::vector<double> levinson_solve(std::span<const double> r,
                                   std::span<const double> b) {
  const std::size_t n = b.size();
  if (r.size() < n || n == 0) {
    throw std::invalid_argument("levinson_solve: dimension mismatch");
  }
  if (std::abs(r[0]) < 1e-300) {
    throw std::runtime_error("levinson_solve: singular system");
  }
  // f: forward vector solving T f = e1 for the current order; fn receives
  // the next order's (the two swap each order). x: the solution, grown one
  // entry per order from zeros.
  std::vector<double> f(n, 0.0), fn(n, 0.0), x(n, 0.0);
  f[0] = 1.0 / r[0];
  x[0] = b[0] / r[0];
  for (std::size_t m = 1; m < n; ++m) {
    // Errors in extending the forward vector and the solution by a zero.
    double ef = 0.0, ex = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      ef += r[m - i] * f[i];
      ex += r[m - i] * x[i];
    }
    const double denom = 1.0 - ef * ef;
    if (std::abs(denom) < 1e-300) {
        throw std::runtime_error("levinson_solve: singular leading minor");
    }
    // New forward vector (symmetric Toeplitz => backward = reversed
    // forward): fn[i] = alpha f[i] + beta f[m - i], each term added to a
    // zero start as the order's accumulation always has.
    const double alpha = 1.0 / denom;
    const double beta = -ef / denom;
    fn[0] = 0.0 + alpha * f[0];
    for (std::size_t i = 1; i < m; ++i) {
      fn[i] = (0.0 + alpha * f[i]) + beta * f[m - i];
    }
    fn[m] = 0.0 + beta * f[0];
    f.swap(fn);
    // Extend solution.
    const double scale = b[m] - ex;
    for (std::size_t i = 0; i <= m; ++i) x[i] += scale * f[m - i];
  }
  return x;
}

std::vector<cplx> cholesky_solve(std::span<const cplx> a,
                                 std::span<const cplx> b, std::size_t n) {
  if (a.size() != n * n || b.size() != n) {
    throw std::invalid_argument("cholesky_solve: dimension mismatch");
  }
  std::vector<cplx> l(n * n, cplx{0.0, 0.0});
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j].real();
    for (std::size_t k = 0; k < j; ++k) diag -= std::norm(l[j * n + k]);
    if (diag <= 0.0) throw std::runtime_error("cholesky_solve: not HPD");
    l[j * n + j] = {std::sqrt(diag), 0.0};
    for (std::size_t i = j + 1; i < n; ++i) {
      cplx v = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) {
        v -= l[i * n + k] * std::conj(l[j * n + k]);
      }
      l[i * n + j] = v / l[j * n + j];
    }
  }
  std::vector<cplx> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    cplx v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l[i * n + k] * y[k];
    y[i] = v / l[i * n + i];
  }
  std::vector<cplx> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    cplx v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) {
      v -= std::conj(l[k * n + ii]) * x[k];
    }
    x[ii] = v / l[ii * n + ii];
  }
  return x;
}

}  // namespace aqua::dsp
