// Underwater ambient noise synthesis matching the paper's Fig. 4
// measurements: strong energy below 1 kHz (flow noise, bubbles), a
// decaying tail up to ~4.5 kHz, site-dependent overall level (9 dB spread),
// impulsive bubble bursts, and narrowband boat machinery tones at busy
// sites.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "dsp/types.h"
#include "dsp/workspace.h"

namespace aqua::channel {

/// Ambient-noise parameters for a site.
struct NoiseParams {
  double level_db = 0.0;          ///< site offset relative to reference
  double reference_rms = 0.008;   ///< RMS of the shaped noise floor at 0 dB
  double low_freq_boost_db = 18.0;///< extra power below the knee (Fig. 4)
  double knee_hz = 900.0;         ///< transition out of the low-freq bump
  double tail_cutoff_hz = 4800.0; ///< noise becomes negligible above this
  double bubble_rate_hz = 0.0;    ///< impulsive burst arrivals per second
  double bubble_gain = 6.0;       ///< burst amplitude relative to floor RMS
  std::vector<double> boat_tones_hz;  ///< machinery lines (busy sites)
  double boat_tone_gain = 3.0;    ///< tone amplitude relative to floor RMS
};

/// RMS of the shaped noise floor a NoiseGenerator built from `p` would
/// report, without constructing one (the floor is a pure function of the
/// params). The audibility culler compares conservative path-gain bounds
/// against this value.
double noise_floor_rms(const NoiseParams& p);

/// Streaming colored-noise generator. Deterministic for a given seed, and
/// chunking-invariant: generate(a) followed by generate(b) produces the
/// same samples as generate(a + b). The noise floor and the impulsive
/// bursts draw from separate RNG streams, so the per-call draw counts of
/// one cannot shift the other's sequence.
///
/// Samples are rendered one refill_step() block at a time into an internal
/// buffer that every call copies out of: a refill draws the block's white
/// Gaussians, colors them through an overlap-save FFT stream over the
/// shaping taps (pre-scaled by the calibrated gain), then adds the bursts
/// and the boat tones. The tones run as rotating phasors re-anchored to the
/// exact phase at every refill. Every random draw happens in the same
/// order as in a sample-by-sample generator, so the realization depends on
/// the seed alone and only floating-point rounding differs from one.
/// A refill leases its FFT scratch from the caller's arena (the one arena
/// rule); once that arena is warm, generate_into() and add_to() do not
/// allocate. generate() is the allocating convenience form.
class NoiseGenerator {
 public:
  NoiseGenerator(const NoiseParams& params, double sample_rate_hz,
                 std::uint64_t seed);
  ~NoiseGenerator();
  NoiseGenerator(NoiseGenerator&&) noexcept;
  NoiseGenerator& operator=(NoiseGenerator&&) noexcept;

  /// Produces the next `n` samples of ambient noise (a fresh vector; the
  /// refills lease from a call-local arena).
  std::vector<double> generate(std::size_t n);

  /// Writes the next out.size() samples into `out`; refills lease from `ws`.
  void generate_into(std::span<double> out, dsp::Workspace& ws);

  /// Adds the next out.size() samples onto `out` (out[i] += noise); refills
  /// lease from `ws`.
  void add_to(std::span<double> out, dsp::Workspace& ws);

  /// Samples rendered per internal refill (the coloring stream's step).
  std::size_t refill_step() const;

  /// RMS of the shaped noise floor (excluding bursts/tones).
  double floor_rms() const { return floor_rms_; }

  /// One-sided power spectral density of the noise floor at `freq_hz`
  /// (per Hz), excluding bursts and tones. Used for analytic SNR checks.
  double psd_one_sided(double freq_hz) const;

  /// The unscaled noise-floor shaping filter.
  const std::vector<double>& shaping_taps() const { return shaping_taps_; }

  const NoiseParams& params() const { return params_; }

 private:
  struct Coloring;  ///< FFT engine and its overlap-save stream

  void refill(dsp::Workspace& ws);
  void add_bursts(std::span<double> block);
  void add_tones(std::span<double> block);
  template <typename Op>
  void drain(std::span<double> out, dsp::Workspace& ws, Op op);

  NoiseParams params_;
  double sample_rate_hz_;
  std::mt19937_64 rng_;        ///< noise-floor stream (one draw per sample)
  std::mt19937_64 burst_rng_;  ///< burst arrivals + burst noise
  std::normal_distribution<double> gauss_{0.0, 1.0};
  std::normal_distribution<double> burst_gauss_{0.0, 1.0};
  std::vector<double> shaping_taps_;
  double floor_rms_ = 0.0;
  double gain_ = 1.0;              ///< white->target-RMS scale factor
  /// Heap-held so the stream's pointer to its engine survives a move.
  std::unique_ptr<Coloring> coloring_;
  std::vector<double> white_;      ///< one refill of floor Gaussians
  std::vector<double> block_;      ///< the current refill's samples
  std::size_t block_pos_ = 0;      ///< next unread sample of block_
  double burst_remaining_ = 0.0;   ///< seconds left in the active burst
  double burst_env_ = 0.0;
  double burst_decay_ = 1.0;       ///< per-sample envelope decay factor
  // Boat tones: t_ is the running time exactly as a per-sample `t += dt`
  // clock accumulates it; each tone (and the amplitude wander) is a unit
  // phasor at that clock's phase, advanced by the clock's actual increment.
  double t_ = 0.0;
  double t_inc_ = -1.0;            ///< increment the rotations were built for
  std::vector<double> tone_re_, tone_im_;  ///< tone phasors, wander last
  std::vector<double> rot_re_, rot_im_;    ///< per-sample rotations

  static std::vector<double> design_shaping_filter(const NoiseParams& p,
                                                   double fs);
};

}  // namespace aqua::channel
