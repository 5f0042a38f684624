// Test-only reference implementations of the tone and feedback decoders as
// they were written before the row-table moving DFT and the lazy median:
//   * reference_moving_dft_power — the dense pass over every window start,
//     with per-bin phasor indices (b * s) mod window walked by integer adds
//     and each update fetching its phasor from the shared base table (the
//     gather form);
//   * OracleFeedback — the decoders that read that dense matrix and take
//     the median of every window start's bins before deciding anything.
// The production decoders must reproduce these bit for bit: same band or
// bin, same start, same peak_fraction bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "dsp/fft_filter.h"
#include "dsp/fir.h"
#include "dsp/types.h"
#include "dsp/workspace.h"
#include "phy/feedback.h"
#include "phy/ofdm.h"

namespace aqua::oracle {

// |S|^2 of one running sum, unfused as the run kernel computes it; the
// compiler must not contract it where the baseline ISA has FMA (AArch64).
#if defined(__GNUC__) && !defined(__clang__)
#define AQUA_ORACLE_NO_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define AQUA_ORACLE_NO_CONTRACT
#endif
template <typename T>
AQUA_ORACLE_NO_CONTRACT T unfused_power(T re, T im) {
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
  return re * re + im * im;
}
#undef AQUA_ORACLE_NO_CONTRACT

/// Dense moving-DFT power, out[s * num_bins + k] for every window start s.
template <typename T>
void reference_moving_dft_power(std::span<const T> x, std::size_t window,
                                std::size_t first_bin, std::size_t num_bins,
                                std::span<T> out, dsp::Workspace& ws) {
  using C = std::complex<T>;
  const std::size_t count = x.size() - window + 1;
  std::vector<T> tab_re(window), tab_im(window);
  for (std::size_t m = 0; m < window; ++m) {
    const double a =
        -dsp::kTwoPi * static_cast<double>(m) / static_cast<double>(window);
    tab_re[m] = static_cast<T>(std::cos(a));
    tab_im[m] = static_cast<T>(std::sin(a));
  }
  std::vector<T> acc_re(num_bins), acc_im(num_bins);
  std::vector<std::size_t> phase(num_bins);
  std::vector<C> spec(window / 2 + 1);
  const auto seed = [&](std::size_t s) {
    dsp::rfft_into(x.subspan(s, window), std::span<C>(spec), ws);
    for (std::size_t k = 0; k < num_bins; ++k) {
      const std::size_t b = first_bin + k;
      const C z = b <= window / 2 ? spec[b] : std::conj(spec[window - b]);
      const std::size_t p = (b * s) % window;
      const C w{tab_re[p], tab_im[p]};
      const C a = z * w;
      acc_re[k] = a.real();
      acc_im[k] = a.imag();
      phase[k] = p;
    }
  };
  const auto write_row = [&](std::size_t s) {
    T* row = out.data() + s * num_bins;
    for (std::size_t k = 0; k < num_bins; ++k) {
      row[k] = unfused_power(acc_re[k], acc_im[k]);
    }
  };
  seed(0);
  write_row(0);
  for (std::size_t s = 1; s < count; ++s) {
    if (s % 4096 == 0) {
      seed(s);
    } else {
      const T d = x[s - 1 + window] - x[s - 1];
      for (std::size_t k = 0; k < num_bins; ++k) {
        const std::size_t p = phase[k];
        acc_re[k] = std::fma(d, tab_re[p], acc_re[k]);
        acc_im[k] = std::fma(d, tab_im[p], acc_im[k]);
        std::size_t next = p + first_bin + k;
        if (next >= window) next -= window;
        phase[k] = next;
      }
    }
    write_row(s);
  }
}

/// The pre-change decoders over the dense reference matrix.
class OracleFeedback {
 public:
  explicit OracleFeedback(const phy::OfdmParams& params)
      : params_(params),
        ofdm_(params),
        bandpass_(dsp::design_bandpass(params.band_low_hz, params.band_high_hz,
                                       params.sample_rate_hz, 129)),
        bandpass_f_(dsp::convert_samples<float>(bandpass_.kernel())) {}

  template <typename T>
  std::optional<phy::FeedbackDecode> decode_band(std::span<const T> raw,
                                                 std::size_t step,
                                                 double min_peak_fraction,
                                                 dsp::Workspace& ws) const {
    std::vector<T> signal;
    std::vector<double> noise;
    std::vector<T> win;
    if (!prepare(raw, step, signal, noise, win, ws)) return std::nullopt;
    std::optional<phy::FeedbackDecode> best;
    double best_peak_sum = 0.0;
    std::vector<double> powers(params_.num_bins());
    for (std::size_t start = 0; start + span_needed() <= signal.size();
         start += step) {
      combine(win, noise, start, powers);
      double total = 0.0;
      std::size_t i1 = 0, i2 = 0;
      double p1 = -1.0, p2 = -1.0;
      for (std::size_t k = 0; k < powers.size(); ++k) {
        const double p = powers[k];
        total += p;
        if (p > p1) {
          p2 = p1;
          i2 = i1;
          p1 = p;
          i1 = k;
        } else if (p > p2) {
          p2 = p;
          i2 = k;
        }
      }
      if (total <= 1e-18) continue;
      std::nth_element(powers.begin(), powers.begin() + powers.size() / 2,
                       powers.end());
      const double median = powers[powers.size() / 2];
      const std::size_t bin_dist = i1 > i2 ? i1 - i2 : i2 - i1;
      const bool single = p2 < 5.0 * median || p2 < 1e-3 * p1 ||
                          (bin_dist <= 1 && p2 < 0.02 * p1);
      const double peak_sum = p1 + (single ? 0.0 : p2);
      const double frac = peak_sum / total;
      if (frac < min_peak_fraction) continue;
      phy::BandSelection band;
      band.begin_bin = single ? i1 : std::min(i1, i2);
      band.end_bin = single ? i1 : std::max(i1, i2);
      if (!best || peak_sum > best_peak_sum) {
        best = phy::FeedbackDecode{band, start, frac};
        best_peak_sum = peak_sum;
      }
    }
    return best;
  }

  template <typename T>
  std::optional<phy::ToneDecode> decode_tone(std::span<const T> raw,
                                             std::size_t step,
                                             double min_peak_fraction,
                                             dsp::Workspace& ws) const {
    std::vector<T> signal;
    std::vector<double> noise;
    std::vector<T> win;
    if (!prepare(raw, step, signal, noise, win, ws)) return std::nullopt;
    std::optional<phy::ToneDecode> best;
    double best_peak = 0.0;
    std::vector<double> powers(params_.num_bins());
    for (std::size_t start = 0; start + span_needed() <= signal.size();
         start += step) {
      combine(win, noise, start, powers);
      double total = 0.0;
      double p1 = -1.0;
      std::size_t i1 = 0;
      for (std::size_t k = 0; k < powers.size(); ++k) {
        const double p = powers[k];
        total += p;
        if (p > p1) {
          p1 = p;
          i1 = k;
        }
      }
      if (total <= 1e-18) continue;
      const double frac = p1 / total;
      if (frac < min_peak_fraction) continue;
      if (!best || p1 > best_peak) {
        best = phy::ToneDecode{i1, start, frac};
        best_peak = p1;
      }
    }
    return best;
  }

 private:
  std::size_t span_needed() const {
    return (phy::FeedbackCodec::kRepeats - 1) *
               params_.symbol_total_samples() +
           params_.symbol_samples();
  }

  // Bandpass, edge noise profile and the dense power matrix; false when
  // the capture is too short to search.
  template <typename T>
  bool prepare(std::span<const T> raw, std::size_t step,
               std::vector<T>& signal, std::vector<double>& noise,
               std::vector<T>& win, dsp::Workspace& ws) const {
    const std::size_t n = params_.symbol_samples();
    const std::size_t bins = params_.num_bins();
    if (raw.size() < n || step == 0) return false;
    signal.assign(raw.size(), T(0));
    if constexpr (std::is_same_v<T, float>) {
      bandpass_f_.filter_same_into(raw, std::span<T>(signal), ws);
    } else {
      bandpass_.filter_same_into(raw, std::span<T>(signal), ws);
    }
    noise.assign(bins, 0.0);
    edge_noise_profile<T>(signal, noise, ws);
    if (signal.size() < span_needed()) return false;
    const std::size_t count = signal.size() - n + 1;
    win.assign(count * bins, T(0));
    reference_moving_dft_power<T>(signal, n, params_.first_bin(), bins, win,
                                  ws);
    return true;
  }

  template <typename T>
  void combine(const std::vector<T>& win, const std::vector<double>& noise,
               std::size_t start, std::vector<double>& powers) const {
    std::fill(powers.begin(), powers.end(), 0.0);
    const std::size_t bins = powers.size();
    for (std::size_t r = 0; r < phy::FeedbackCodec::kRepeats; ++r) {
      const T* row =
          win.data() + (start + r * params_.symbol_total_samples()) * bins;
      for (std::size_t k = 0; k < bins; ++k) {
        powers[k] += static_cast<double>(row[k]) / noise[k];
      }
    }
  }

  template <typename T>
  void edge_noise_profile(std::span<const T> signal, std::span<double> noise,
                          dsp::Workspace& ws) const {
    const std::size_t n = params_.symbol_samples();
    const std::size_t bins = params_.num_bins();
    std::vector<dsp::cplx> spec(bins);
    std::vector<double> window(n);
    const auto edge_mean = [&](bool from_start, std::vector<double>& acc) {
      acc.assign(bins, 0.0);
      std::size_t count = 0;
      for (std::size_t w = 0; w < 4; ++w) {
        const std::size_t off = w * n / 2;
        if (off + n > signal.size()) break;
        const std::size_t start = from_start ? off : signal.size() - n - off;
        for (std::size_t j = 0; j < n; ++j) {
          window[j] = static_cast<double>(signal[start + j]);
        }
        ofdm_.demodulate_into(window, spec, ws);
        for (std::size_t k = 0; k < bins; ++k) acc[k] += std::norm(spec[k]);
        ++count;
      }
      if (count > 0) {
        for (double& v : acc) v /= static_cast<double>(count);
      }
    };
    std::vector<double> head, tail;
    edge_mean(true, head);
    edge_mean(false, tail);
    std::vector<double> raw(bins);
    for (std::size_t k = 0; k < bins; ++k) raw[k] = std::min(head[k], tail[k]);
    for (std::size_t k = 0; k < bins; ++k) {
      double acc = 0.0;
      std::size_t cnt = 0;
      for (std::ptrdiff_t d = -2; d <= 2; ++d) {
        const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(k) + d;
        if (j < 0 || j >= static_cast<std::ptrdiff_t>(bins)) continue;
        acc += raw[static_cast<std::size_t>(j)];
        ++cnt;
      }
      noise[k] = acc / static_cast<double>(cnt);
    }
    std::vector<double> sorted(noise.begin(), noise.end());
    std::nth_element(sorted.begin(), sorted.begin() + bins / 2, sorted.end());
    const double floor_val = 0.2 * sorted[bins / 2] + 1e-18;
    for (double& v : noise) v = std::max(v, floor_val);
  }

  phy::OfdmParams params_;
  phy::Ofdm ofdm_;
  dsp::FftFilter bandpass_;
  dsp::BasicFftFilter<float> bandpass_f_;
};

}  // namespace aqua::oracle
