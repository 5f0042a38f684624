// Section 3 / 5 reproduction via google-benchmark: component runtimes
// (channel estimation, band selection, feedback decode, per-symbol
// equalization + Viterbi — the paper reports 1-2 ms each on a Galaxy S9
// and <20 ms per symbol for decoding), the receive kernels under them
// (real FFT, preamble confirmation, moving DFT) and end-to-end messaging
// airtime.
#include <benchmark/benchmark.h>

#include <complex>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "dsp/fft.h"
#include "dsp/fir.h"
#include "dsp/simd.h"
#include "dsp/sliding_dft.h"
#include "phy/bandselect.h"
#include "phy/chanest.h"
#include "phy/datamodem.h"
#include "phy/equalizer.h"
#include "phy/feedback.h"
#include "phy/preamble.h"

using namespace aqua;

namespace {

std::vector<double> noisy_preamble(const phy::Preamble& pre, double sigma) {
  std::mt19937_64 rng(5);
  std::normal_distribution<double> g(0.0, sigma);
  std::vector<double> rx(
      pre.waveform().begin() + 67, pre.waveform().end());
  for (auto& v : rx) v += g(rng);
  return rx;
}

void BM_ChannelEstimation(benchmark::State& state) {
  const phy::OfdmParams p;
  phy::Ofdm ofdm(p);
  phy::Preamble pre(p);
  const std::vector<double> rx = noisy_preamble(pre, 0.01);
  dsp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        phy::estimate_channel(ofdm, rx, pre.cazac_bins(), ws));
  }
}
BENCHMARK(BM_ChannelEstimation);

// The shared transform layer under every decoder: the packed real FFT at
// the sizes the receive path runs (1,024 and 2,048: tone/feedback
// bandpass and data decode; 16,384: the preamble correlation stream),
// in both precisions. state.range(0) is the real transform size.
template <typename T>
void BM_Rfft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const dsp::BasicRfftPlan<T>& plan = dsp::rplan_of<T>(n);
  std::mt19937_64 rng(8);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<T> x(n);
  for (auto& v : x) v = static_cast<T>(g(rng));
  std::vector<std::complex<T>> spec(plan.spectrum_size());
  dsp::Workspace ws;
  for (auto _ : state) {
    plan.forward(x, spec, ws);
    benchmark::DoNotOptimize(spec.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Rfft<float>)->Arg(1024)->Arg(2048)->Arg(16384);
BENCHMARK(BM_Rfft<double>)->Arg(1024)->Arg(2048)->Arg(16384);

// The 960-point OFDM symbol transform (Bluestein over a 2,048-point
// radix-2 core), forward and inverse alternately as demodulation and
// modulation use it.
void BM_Fft960(benchmark::State& state) {
  const dsp::FftPlan& plan = dsp::plan_of(960);
  std::mt19937_64 rng(9);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<dsp::cplx> x(960), y(960);
  for (auto& v : x) v = {g(rng), g(rng)};
  dsp::Workspace ws;
  for (auto _ : state) {
    plan.forward(x, y, ws);
    plan.inverse(y, x, ws);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Fft960);

void BM_BandSelection(benchmark::State& state) {
  std::mt19937_64 rng(2);
  std::normal_distribution<double> g(9.0, 6.0);
  std::vector<double> snr(60);
  for (auto& s : snr) s = g(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::select_band(snr));
  }
}
BENCHMARK(BM_BandSelection);

void BM_FeedbackDecode(benchmark::State& state) {
  const phy::OfdmParams p;
  phy::FeedbackCodec fb(p);
  std::vector<double> signal(3000, 0.0);
  const std::vector<double> sym = fb.encode_band({10, 40, false});
  signal.insert(signal.end(), sym.begin(), sym.end());
  signal.resize(signal.size() + 3000, 0.0);
  dsp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fb.decode_band(signal, 8, 0.3, ws));
  }
}
BENCHMARK(BM_FeedbackDecode);

void BM_PreambleDetect(benchmark::State& state) {
  const phy::OfdmParams p;
  phy::Preamble pre(p);
  std::vector<double> signal(24000, 0.0);
  const std::vector<double>& w = pre.waveform();
  for (std::size_t i = 0; i < w.size(); ++i) signal[8000 + i] = w[i];
  dsp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pre.detect(signal, ws));
  }
}
BENCHMARK(BM_PreambleDetect);

// The preamble confirmation of one above-threshold scanner window, in
// float: the step-8 pass over two symbols (240 starts) and the 17-start
// fine pass. Arg 0 runs it as one dispatched `dot` per segment and energy
// (eight per start, the form the batch kernel replaced), arg 1 as two
// segment_dots batch calls.
void BM_PreambleConfirm(benchmark::State& state) {
  const phy::OfdmParams p;
  const std::size_t n = p.symbol_samples();
  const std::size_t seg = dsp::simd::kSegments;
  std::mt19937_64 rng(11);
  std::normal_distribution<float> g(0.0f, 1.0f);
  std::vector<float> x(2 * n + seg * n + 16);
  for (auto& v : x) v = g(rng);
  const dsp::simd::Kernels& kern = dsp::simd::active();
  std::vector<float> dots((240 + 17) * seg);
  const bool batch = state.range(0) == 1;
  const auto per_dot = [&](const float* w, std::size_t stride,
                           std::size_t count, float* out) {
    for (std::size_t c = 0; c < count; ++c, out += seg) {
      const float* s = w + c * stride;
      for (std::size_t k = 0; k + 1 < seg; ++k) {
        out[k] = dsp::simd::dot(kern, s + k * n, s + (k + 1) * n, n);
      }
      out[seg - 1] = dsp::simd::dot(kern, s, s, seg * n);
    }
  };
  for (auto _ : state) {
    if (batch) {
      dsp::simd::segment_dots(kern, x.data(), n, 8, 240, dots.data());
      dsp::simd::segment_dots(kern, x.data() + n - 8, n, 1, 17,
                              dots.data() + 240 * seg);
    } else {
      per_dot(x.data(), 8, 240, dots.data());
      per_dot(x.data() + n - 8, 1, 17, dots.data() + 240 * seg);
    }
    benchmark::DoNotOptimize(dots.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(kern.name) + (batch ? " batch" : " per-dot"));
}
BENCHMARK(BM_PreambleConfirm)->Arg(0)->Arg(1);

// The moving-DFT power pass of one float tone/feedback decode: 52,800
// samples (1.1 s at 48 kHz), the paper's 60 bins of a 960-point window,
// rows on the decoders' step-8 grid at both repeat offsets.
void BM_MovingDftPower(benchmark::State& state) {
  const phy::OfdmParams p;
  const std::size_t n = p.symbol_samples();
  const dsp::SlidingDftTable<float>& table = dsp::sdft_table_of<float>(
      {n, p.first_bin(), p.num_bins()});
  std::mt19937_64 rng(12);
  std::normal_distribution<float> g(0.0f, 1.0f);
  std::vector<float> x(52800);
  for (auto& v : x) v = g(rng);
  const std::size_t offsets[2] = {0, p.symbol_total_samples()};
  const dsp::DftRowGrid grid{8, offsets};
  std::vector<float> out(grid.rows(x.size() - n + 1) * 2 * p.num_bins());
  dsp::Workspace ws;
  for (auto _ : state) {
    dsp::moving_dft_power(std::span<const float>(x), table, grid, out, ws);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(dsp::simd::active().name);
}
BENCHMARK(BM_MovingDftPower);

void BM_EqualizerTrain(benchmark::State& state) {
  std::mt19937_64 rng(3);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> tx(1027), h = {1.0, 0.0, 0.0, 0.4, 0.0, -0.2};
  for (auto& v : tx) v = g(rng);
  std::vector<double> rx = dsp::convolve(tx, h);
  rx.resize(tx.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::MmseEqualizer::train(rx, tx, 480, 240));
  }
}
BENCHMARK(BM_EqualizerTrain);

void BM_EqualizerApply(benchmark::State& state) {
  // One 480-tap equalizer over 8,000 received samples (the data decode's
  // per-packet apply).
  std::mt19937_64 rng(4);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> tx(1027), h = {1.0, 0.0, 0.0, 0.4, 0.0, -0.2};
  for (auto& v : tx) v = g(rng);
  std::vector<double> rx = dsp::convolve(tx, h);
  rx.resize(tx.size());
  const phy::MmseEqualizer eq = phy::MmseEqualizer::train(rx, tx, 480, 240);
  std::vector<double> x(8000), out(8000);
  for (auto& v : x) v = g(rng);
  for (auto _ : state) {
    eq.apply_into(x, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EqualizerApply);

void BM_DecodeOneSymbolPacket(benchmark::State& state) {
  // Paper: equalization + Viterbi per symbol in <20 ms (real-time bound).
  const phy::OfdmParams p;
  phy::DataModem dm(p);
  const phy::BandSelection band{0, 59, false};
  std::mt19937_64 rng(6);
  std::vector<std::uint8_t> info(16);
  for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1);
  std::vector<double> signal(500, 0.0);
  const std::vector<double> wave = dm.encode(info, band);
  signal.insert(signal.end(), wave.begin(), wave.end());
  signal.resize(signal.size() + 500, 0.0);
  phy::DecodeOptions opts;
  opts.search_window = 1000;
  dsp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dm.decode(signal, band, 16, opts, ws));
  }
}
BENCHMARK(BM_DecodeOneSymbolPacket);

void BM_MessageAirtime(benchmark::State& state) {
  // Messaging latency (section 5): airtime of a 16-bit (two hand signal)
  // packet at the band width given by state.range(0).
  const phy::OfdmParams p;
  phy::DataModem dm(p);
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const phy::BandSelection band{0, width - 1, false};
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> info(16);
  for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1);
  double airtime_ms = 0.0;
  for (auto _ : state) {
    const std::vector<double> wave = dm.encode(info, band);
    airtime_ms = 1000.0 * static_cast<double>(wave.size()) / 48000.0;
    benchmark::DoNotOptimize(wave);
  }
  state.counters["airtime_ms"] = airtime_ms;
  state.counters["info_bitrate_bps"] = p.reported_bitrate_bps(width);
}
BENCHMARK(BM_MessageAirtime)->Arg(4)->Arg(19)->Arg(60);

}  // namespace

BENCHMARK_MAIN();
