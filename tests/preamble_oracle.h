// Test-only reference implementations of the preamble confirmation as it
// was written before the batch confirmation kernel:
//   * reference_segment_dots / reference_sliding_metric — one start's
//     dots from eight separate dispatched `dot` calls (seven adjacent
//     segments, then the window energy) and its metric from them,
//     accumulated in double;
//   * reference_confirm — the step-8 pass and the full 17-start fine pass
//     around its best, every start evaluated, strict `>` updates;
//   * reference_detect / reference_scan — Preamble::detect and the
//     streaming BasicPreambleScanner in batch form over a whole capture,
//     with every confirmation through reference_confirm.
// The production detector and scanner must reproduce these bit for bit:
// same start_index, same sliding_metric and coarse_peak bits.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dsp/correlate.h"
#include "dsp/fft_filter.h"
#include "dsp/fir.h"
#include "dsp/simd.h"
#include "dsp/types.h"
#include "dsp/workspace.h"
#include "phy/params.h"
#include "phy/preamble.h"

namespace aqua::oracle {

/// One start's confirmation dots from eight separate dispatched `dot`
/// calls: the seven adjacent-segment dots, then the window energy. The
/// window must lie inside the signal.
template <typename T>
std::array<T, phy::OfdmParams::kPreambleSymbols> reference_segment_dots(
    std::span<const T> signal, std::size_t n, std::size_t start) {
  constexpr std::size_t kSym = phy::OfdmParams::kPreambleSymbols;
  const dsp::simd::Kernels& kern = dsp::simd::active();
  std::array<T, kSym> dots{};
  for (std::size_t s = 0; s + 1 < kSym; ++s) {
    const T* a = signal.data() + start + s * n;
    dots[s] = dsp::simd::dot(kern, a, a + n, n);
  }
  const T* w = signal.data() + start;
  dots[kSym - 1] = dsp::simd::dot(kern, w, w, kSym * n);
  return dots;
}

/// The per-dot sliding metric at `start` (0 when the window leaves the
/// signal or carries no energy).
template <typename T>
double reference_sliding_metric(std::span<const T> signal, std::size_t n,
                                std::size_t start) {
  constexpr std::size_t kSym = phy::OfdmParams::kPreambleSymbols;
  if (start + kSym * n > signal.size()) return 0.0;
  const auto dots = reference_segment_dots(signal, n, start);
  double corr_sum = 0.0;
  for (std::size_t s = 0; s + 1 < kSym; ++s) {
    const double sign = static_cast<double>(phy::OfdmParams::kPnSigns[s] *
                                            phy::OfdmParams::kPnSigns[s + 1]);
    corr_sum += sign * static_cast<double>(dots[s]);
  }
  const double energy_sum = static_cast<double>(dots[kSym - 1]);
  if (energy_sum <= 1e-12) return 0.0;
  return corr_sum / energy_sum;
}

/// Stage 2 around one candidate: starts are absolute, signal[0] is start
/// `base`, and a start below `base` scores 0. `fine_end` bounds the fine
/// pass (the batch detector clamps it to the signal length).
template <typename T>
std::pair<double, std::uint64_t> reference_confirm(std::span<const T> signal,
                                                   std::size_t n,
                                                   std::uint64_t base,
                                                   std::uint64_t lo,
                                                   std::uint64_t hi,
                                                   std::uint64_t fine_end) {
  constexpr std::uint64_t kStep = phy::Preamble::kSlidingStep;
  const auto metric = [&](std::uint64_t i) {
    if (i < base) return 0.0;
    return reference_sliding_metric(signal, n,
                                    static_cast<std::size_t>(i - base));
  };
  double best_metric = 0.0;
  std::uint64_t best_idx = lo;
  for (std::uint64_t i = lo; i < hi; i += kStep) {
    const double m = metric(i);
    if (m > best_metric) {
      best_metric = m;
      best_idx = i;
    }
  }
  const std::uint64_t f_lo = best_idx > kStep ? best_idx - kStep : 0;
  const std::uint64_t f_hi = std::min(best_idx + kStep + 1, fine_end);
  for (std::uint64_t i = f_lo; i < f_hi; ++i) {
    const double m = metric(i);
    if (m > best_metric) {
      best_metric = m;
      best_idx = i;
    }
  }
  return {best_metric, best_idx};
}

/// Preamble::detect with the reference confirmation.
inline std::optional<phy::PreambleDetection> reference_detect(
    const phy::OfdmParams& params, const phy::Preamble& pre,
    std::span<const double> raw, dsp::Workspace& ws) {
  const std::size_t n = params.symbol_samples();
  if (raw.size() < pre.core_samples()) return std::nullopt;
  const dsp::FftFilter bandpass(dsp::design_bandpass(
      params.band_low_hz, params.band_high_hz, params.sample_rate_hz, 129));
  std::vector<double> signal(raw.size());
  bandpass.filter_same_into(raw, signal, ws);
  const dsp::CrossCorrelator corr(pre.core_template());
  const std::size_t coarse_len = corr.output_length(signal.size());
  if (coarse_len == 0) return std::nullopt;
  std::vector<double> coarse(coarse_len);
  corr.normalized_into(signal, coarse, ws);

  struct Candidate {
    double value;
    std::size_t index;
  };
  std::vector<Candidate> candidates;
  const std::size_t chunk = std::max<std::size_t>(n / 2, 1);
  for (std::size_t b = 0; b < coarse.size(); b += chunk) {
    const std::size_t end = std::min(b + chunk, coarse.size());
    std::size_t best = b;
    for (std::size_t i = b + 1; i < end; ++i) {
      if (coarse[i] > coarse[best]) best = i;
    }
    if (coarse[best] > phy::Preamble::kCoarseThreshold) {
      candidates.push_back({coarse[best], best});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.value > b.value;
            });
  if (candidates.size() > 16) candidates.resize(16);

  std::optional<phy::PreambleDetection> best;
  for (const Candidate& c : candidates) {
    const std::size_t lo = c.index > n ? c.index - n : 0;
    const std::size_t hi = std::min(c.index + n, signal.size());
    const auto [m, idx] = reference_confirm<double>(signal, n, 0, lo, hi,
                                                    signal.size());
    if (m >= phy::Preamble::kSlidingThreshold &&
        (!best || m > best->sliding_metric)) {
      best = phy::PreambleDetection{static_cast<std::size_t>(idx), m, c.value};
    }
  }
  return best;
}

/// The streaming scanner's emitted detections for the whole capture `rx`
/// fed in any chunking: the same bandpass and correlation streams, the
/// same double energy recurrence with absolute-grid re-sums, the same
/// window decision and merge rules, and the reference confirmation.
template <typename T>
std::vector<phy::PreambleDetection> reference_scan(
    const phy::OfdmParams& params, const phy::Preamble& pre,
    std::span<const T> rx, dsp::Workspace& ws) {
  const std::size_t n = params.symbol_samples();
  const std::size_t core = pre.core_samples();
  const std::size_t window = std::max<std::size_t>(n / 2, 1);
  constexpr std::uint64_t kStep = phy::Preamble::kSlidingStep;
  const std::vector<double> kernel = dsp::design_bandpass(
      params.band_low_hz, params.band_high_hz, params.sample_rate_hz, 129);
  const std::size_t delay = (kernel.size() - 1) / 2;
  std::vector<double> tmpl = pre.core_template();
  const double ref_energy = dsp::energy(std::span<const double>(tmpl));
  std::reverse(tmpl.begin(), tmpl.end());

  const dsp::BasicFftFilter<T> band(dsp::convert_samples<T>(kernel));
  const dsp::BasicFftFilter<T> corr(dsp::convert_samples<T>(tmpl),
                                    dsp::kMaxStreamStep);
  typename dsp::BasicFftFilter<T>::Stream band_stream(band,
                                                      dsp::kMaxStreamStep);
  typename dsp::BasicFftFilter<T>::Stream corr_stream(corr);
  std::vector<T> conv;
  band_stream.push(rx, conv, ws);
  const std::vector<T> filt(conv.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(delay, conv.size())),
                            conv.end());
  std::vector<T> corr_out;
  corr_stream.push(filt, corr_out, ws);
  const std::vector<T> corr_vals(
      corr_out.begin() +
          static_cast<std::ptrdiff_t>(std::min(core - 1, corr_out.size())),
      corr_out.end());

  std::vector<T> coarse;
  double energy_acc = 0.0;
  for (std::size_t i = 0; i < corr_vals.size() && i + core <= filt.size();
       ++i) {
    if (i % 4096 == 0) {
      double acc = 0.0;
      for (std::size_t j = 0; j < core; ++j) {
        const double v = static_cast<double>(filt[i + j]);
        acc += v * v;
      }
      energy_acc = acc;
    } else {
      const double head = static_cast<double>(filt[i - 1]);
      const double tail = static_cast<double>(filt[i - 1 + core]);
      energy_acc += tail * tail - head * head;
    }
    const double e = std::max(energy_acc, 0.0);
    const double denom = std::sqrt(ref_energy * e);
    const double c = static_cast<double>(corr_vals[i]);
    coarse.push_back(static_cast<T>(denom > 1e-12 ? c / denom : 0.0));
  }

  std::vector<phy::PreambleDetection> out;
  std::optional<phy::PreambleDetection> pending;
  for (std::uint64_t w = 0;; ++w) {
    const std::uint64_t lo = w * window;
    const std::uint64_t hi = lo + window;
    if (coarse.size() < hi) break;
    if (filt.size() < hi - 1 + n + kStep + core + 1) break;
    std::uint64_t c = lo;
    for (std::uint64_t i = lo + 1; i < hi; ++i) {
      if (coarse[i] > coarse[c]) c = i;
    }
    const double peak = static_cast<double>(coarse[c]);
    if (peak > phy::Preamble::kCoarseThreshold) {
      const std::uint64_t s_lo = c > n ? c - n : 0;
      const auto [m, idx] = reference_confirm<T>(filt, n, 0, s_lo, c + n,
                                                 UINT64_MAX);
      if (m >= phy::Preamble::kSlidingThreshold) {
        const phy::PreambleDetection det{static_cast<std::size_t>(idx), m,
                                         peak};
        if (pending && det.start_index <= pending->start_index + core) {
          if (det.sliding_metric > pending->sliding_metric) *pending = det;
        } else {
          if (pending) out.push_back(*pending);
          pending = det;
        }
      }
    }
    if (pending && (w + 1) * window > pending->start_index + core + n + kStep) {
      out.push_back(*pending);
      pending.reset();
    }
  }
  return out;
}

}  // namespace aqua::oracle
