#include "channel/noise.h"

#include <algorithm>
#include <cmath>

#include "dsp/fft_filter.h"
#include "dsp/fir.h"
#include "dsp/workspace.h"

namespace aqua::channel {

namespace {

// Overlap-save block of the coloring stream. For the 512-tap shaping
// filter, 2048 costs the same per sample as the batch optimum (4096) and
// keeps each refill to 1537 samples, so refills are less bursty.
constexpr std::size_t kColoringFft = 2048;

// Gaussians the gain calibration colors (a private warm-up sequence).
constexpr std::size_t kCalibrationSamples = 8192;

// Rate of the boat tones' slow amplitude wander.
constexpr double kWanderHz = 0.13;

}  // namespace

double noise_floor_rms(const NoiseParams& p) {
  return p.reference_rms * dsp::db_to_amplitude(p.level_db);
}

std::vector<double> NoiseGenerator::design_shaping_filter(
    const NoiseParams& p, double fs) {
  // Frequency-sampled magnitude: low-frequency bump below the knee,
  // gentle decay to the tail cutoff, near-zero above.
  const std::size_t n = 512;
  std::vector<double> mag(n / 2 + 1);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    const double f = static_cast<double>(k) * fs / static_cast<double>(n);
    const double knee = p.knee_hz;
    // Smooth low-frequency boost that fades across the knee.
    const double bump_db =
        p.low_freq_boost_db / (1.0 + std::pow(f / knee, 3.0));
    // Tail roll-off toward the cutoff.
    double tail_db = 0.0;
    if (f > knee) {
      tail_db = -10.0 * (f - knee) / std::max(p.tail_cutoff_hz - knee, 1.0);
    }
    if (f > p.tail_cutoff_hz) {
      tail_db -= 30.0 * (f - p.tail_cutoff_hz) / 1000.0;
    }
    mag[k] = std::pow(10.0, (bump_db + tail_db) / 20.0);
  }
  mag[0] *= 0.2;  // keep DC bounded
  return dsp::design_from_magnitude(mag, n);
}

struct NoiseGenerator::Coloring {
  Coloring(std::vector<double> kernel, std::size_t max_step)
      : filter(std::move(kernel), max_step), stream(filter) {}

  dsp::FftFilter filter;
  dsp::FftFilter::Stream stream;
};

NoiseGenerator::NoiseGenerator(const NoiseParams& params,
                               double sample_rate_hz, std::uint64_t seed)
    : params_(params),
      sample_rate_hz_(sample_rate_hz),
      rng_(seed),
      burst_rng_(seed * 0x9E3779B97F4A7C15ULL + 0x6A09E667F3BCC909ULL),
      shaping_taps_(design_shaping_filter(params, sample_rate_hz)) {
  // Calibrate the shaped floor RMS empirically once (deterministic warmup
  // with a private RNG so the stream itself is unaffected), through the
  // same overlap-save block the stream runs.
  std::mt19937_64 warm_rng(seed ^ 0xABCDEF);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> white(kCalibrationSamples);
  for (double& v : white) v = g(warm_rng);
  const std::size_t max_step = kColoringFft - shaping_taps_.size() + 1;
  const dsp::FftFilter shaping(shaping_taps_, max_step);
  std::vector<double> shaped(shaping.output_length(white.size()));
  dsp::Workspace ws;
  shaping.convolve_into(white, shaped, ws);
  const double raw_rms =
      dsp::rms(std::span<const double>(shaped).first(white.size()));
  const double target = noise_floor_rms(params_);
  floor_rms_ = target;
  gain_ = raw_rms > 0.0 ? target / raw_rms : 0.0;

  std::vector<double> scaled = shaping_taps_;
  for (double& v : scaled) v *= gain_;
  coloring_ = std::make_unique<Coloring>(std::move(scaled), max_step);
  white_.resize(coloring_->stream.step());
  block_.reserve(white_.size());
  burst_decay_ = std::exp(-(1.0 / sample_rate_hz_) / 0.008);
  const std::size_t phasors = params_.boat_tones_hz.size() + 1;
  tone_re_.resize(phasors);
  tone_im_.resize(phasors);
  rot_re_.resize(phasors);
  rot_im_.resize(phasors);
}

NoiseGenerator::~NoiseGenerator() = default;
NoiseGenerator::NoiseGenerator(NoiseGenerator&&) noexcept = default;
NoiseGenerator& NoiseGenerator::operator=(NoiseGenerator&&) noexcept =
    default;

std::size_t NoiseGenerator::refill_step() const {
  return coloring_->stream.step();
}

double NoiseGenerator::psd_one_sided(double freq_hz) const {
  const double mag =
      std::abs(dsp::fir_response(shaping_taps_, freq_hz, sample_rate_hz_));
  return 2.0 / sample_rate_hz_ * gain_ * gain_ * mag * mag;
}

// Renders the next refill_step() samples. Draw order is the contract: the
// block's floor Gaussians come off rng_ in sample order, then the burst
// process draws from burst_rng_ sample by sample, exactly as a generator
// producing one sample at a time would.
void NoiseGenerator::refill(dsp::Workspace& ws) {
  for (double& v : white_) v = gauss_(rng_);
  block_.clear();
  coloring_->stream.push(white_, block_, ws);  // one step out per step in
  add_bursts(block_);
  add_tones(block_);
  block_pos_ = 0;
}

// Impulsive bubble bursts: Poisson arrivals, exponentially decaying
// envelopes of white noise (spiky, which is what stresses plain
// cross-correlation detection in the paper).
void NoiseGenerator::add_bursts(std::span<double> block) {
  if (!(params_.bubble_rate_hz > 0.0)) return;
  const double dt = 1.0 / sample_rate_hz_;
  const double p_burst = params_.bubble_rate_hz * dt;
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (double& v : block) {
    if (uni(burst_rng_) < p_burst) {
      burst_remaining_ = 0.02 + 0.03 * uni(burst_rng_);
      burst_env_ = params_.bubble_gain * floor_rms_;
    }
    if (burst_remaining_ > 0.0) {
      v += burst_env_ * burst_gauss_(burst_rng_);
      burst_env_ *= burst_decay_;
      burst_remaining_ -= dt;
    }
  }
}

// Boat machinery tones with slow random amplitude wander. Each phasor is
// re-anchored to the exact phase sin/cos(2 pi f t + phi) of the running
// clock once per refill, then advanced per sample by the clock's own
// increment, so the phase error stays at rounding level however long the
// generator runs.
void NoiseGenerator::add_tones(std::span<double> block) {
  const std::vector<double>& tones = params_.boat_tones_hz;
  if (tones.empty()) return;
  const std::size_t nt = tones.size();
  const auto freq = [&](std::size_t j) {
    return j < nt ? tones[j] : kWanderHz;
  };
  for (std::size_t j = 0; j <= nt; ++j) {
    const double a = j < nt ? dsp::kTwoPi * tones[j] * t_ +
                                  0.7 * static_cast<double>(j)
                            : dsp::kTwoPi * kWanderHz * t_;
    tone_re_[j] = std::cos(a);
    tone_im_[j] = std::sin(a);
  }
  const double dt = 1.0 / sample_rate_hz_;
  const double tone_gain = params_.boat_tone_gain * floor_rms_;
  const double count = static_cast<double>(nt);
  for (double& v : block) {
    double tone_sum = 0.0;
    for (std::size_t j = 0; j < nt; ++j) tone_sum += tone_im_[j];
    const double wander = 0.75 + 0.25 * tone_im_[nt];
    v += tone_gain * wander * tone_sum / count;
    // The clock advances by a constant increment within one binade of t;
    // rebuild the rotations only when that increment changes.
    const double t_next = t_ + dt;
    const double inc = t_next - t_;
    if (inc != t_inc_) {
      t_inc_ = inc;
      for (std::size_t j = 0; j <= nt; ++j) {
        const double w = dsp::kTwoPi * freq(j) * inc;
        rot_re_[j] = std::cos(w);
        rot_im_[j] = std::sin(w);
      }
    }
    for (std::size_t j = 0; j <= nt; ++j) {
      const double re = tone_re_[j], im = tone_im_[j];
      tone_re_[j] = re * rot_re_[j] - im * rot_im_[j];
      tone_im_[j] = re * rot_im_[j] + im * rot_re_[j];
    }
    t_ = t_next;
  }
}

template <typename Op>
void NoiseGenerator::drain(std::span<double> out, dsp::Workspace& ws,
                           Op op) {
  std::size_t done = 0;
  while (done < out.size()) {
    if (block_pos_ == block_.size()) refill(ws);
    const std::size_t take =
        std::min(out.size() - done, block_.size() - block_pos_);
    op(out.subspan(done, take),
       std::span<const double>(block_).subspan(block_pos_, take));
    done += take;
    block_pos_ += take;
  }
}

void NoiseGenerator::generate_into(std::span<double> out,
                                   dsp::Workspace& ws) {
  drain(out, ws, [](std::span<double> dst, std::span<const double> src) {
    std::copy(src.begin(), src.end(), dst.begin());
  });
}

void NoiseGenerator::add_to(std::span<double> out, dsp::Workspace& ws) {
  drain(out, ws, [](std::span<double> dst, std::span<const double> src) {
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
  });
}

std::vector<double> NoiseGenerator::generate(std::size_t n) {
  std::vector<double> out(n);
  dsp::Workspace ws;
  generate_into(out, ws);
  return out;
}

}  // namespace aqua::channel
