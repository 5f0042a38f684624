// Channel substrate: absorption, image-method multipath, device profiles,
// noise synthesis, mobility, and the composed link simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <span>

#include "channel/absorption.h"
#include "channel/channel.h"
#include "channel/device.h"
#include "channel/environment.h"
#include "channel/mobility.h"
#include "channel/multipath.h"
#include "channel/noise.h"
#include "dsp/chirp.h"
#include "dsp/fir.h"
#include "dsp/spectrum.h"

namespace aqua::channel {
namespace {

TEST(Absorption, ThorpIsSmallInTheModemBand) {
  // At 1-4 kHz absorption is a fraction of a dB/km (why acoustic comms
  // works at all); it grows steeply with frequency.
  EXPECT_LT(thorp_absorption_db_per_km(1000.0), 0.1);
  EXPECT_LT(thorp_absorption_db_per_km(4000.0), 0.5);
  EXPECT_GT(thorp_absorption_db_per_km(50000.0), 10.0);
  EXPECT_GT(thorp_absorption_db_per_km(4000.0),
            thorp_absorption_db_per_km(1000.0));
}

TEST(Absorption, SpreadingDominatesShortRange) {
  // 5 m -> 10 m costs ~6 dB (spherical spreading).
  const double tl5 = transmission_loss_db(5.0, 2500.0);
  const double tl10 = transmission_loss_db(10.0, 2500.0);
  EXPECT_NEAR(tl10 - tl5, 6.02, 0.1);
}

TEST(Multipath, DirectPathComesFirstWithUnitBounces) {
  Geometry g{10.0, 1.0, 1.0, 5.0};
  WaveguideParams wp;
  const std::vector<Path> paths = compute_paths(g, wp);
  ASSERT_GE(paths.size(), 3u);
  EXPECT_EQ(paths[0].surface_bounces, 0);
  EXPECT_EQ(paths[0].bottom_bounces, 0);
  EXPECT_NEAR(paths[0].delay_s, 10.0 / kSoundSpeedWater, 1e-6);
  // Sorted by delay.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].delay_s, paths[i - 1].delay_s);
  }
}

TEST(Multipath, SurfaceBounceFlipsSign) {
  Geometry g{10.0, 1.0, 1.0, 50.0};  // deep water: few bottom bounces
  WaveguideParams wp;
  const std::vector<Path> paths = compute_paths(g, wp);
  // Find the single-surface-bounce path.
  bool found = false;
  for (const Path& p : paths) {
    if (p.surface_bounces == 1 && p.bottom_bounces == 0) {
      EXPECT_LT(p.amplitude, 0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Multipath, ShallowWaterHasLongerDelaySpread) {
  WaveguideParams wp;
  Geometry shallow{20.0, 1.0, 1.0, 3.0};
  Geometry deep{20.0, 1.0, 1.0, 30.0};
  auto spread = [&](const Geometry& g) {
    const std::vector<Path> paths = compute_paths(g, wp);
    return paths.back().delay_s - paths.front().delay_s;
  };
  EXPECT_GT(spread(shallow), 0.0);
  // In very shallow water many bounces arrive with meaningful energy.
  const std::vector<Path> p_shallow = compute_paths(shallow, wp);
  const std::vector<Path> p_deep = compute_paths(deep, wp);
  EXPECT_GT(p_shallow.size(), p_deep.size());
}

TEST(Multipath, ImpulseResponseEnergyMatchesPathAmplitudes) {
  Geometry g{10.0, 1.0, 1.0, 5.0};
  WaveguideParams wp;
  const std::vector<Path> paths = compute_paths(g, wp);
  double bulk = 0.0;
  const std::vector<double> ir =
      paths_to_impulse_response(paths, 48000.0, &bulk);
  EXPECT_NEAR(bulk, paths.front().delay_s, 1e-9);
  double amp2 = 0.0;
  for (const Path& p : paths) amp2 += p.amplitude * p.amplitude;
  EXPECT_NEAR(dsp::energy(ir), amp2, 0.15 * amp2);
}

TEST(Multipath, FrequencyResponseShowsFading) {
  // Direct + inverted surface bounce produce >10 dB swings across 1-4 kHz
  // at this geometry (the paper's Fig. 3 observation).
  Geometry g{10.0, 1.0, 1.0, 5.0};
  WaveguideParams wp;
  const std::vector<Path> paths = compute_paths(g, wp);
  double lo = 1e9, hi = 0.0;
  for (double f = 1000.0; f <= 4000.0; f += 25.0) {
    const double mag = std::abs(paths_frequency_response(paths, f));
    lo = std::min(lo, mag);
    hi = std::max(hi, mag);
  }
  EXPECT_GT(20.0 * std::log10(hi / lo), 10.0);
}

TEST(Multipath, RejectsBadGeometry) {
  WaveguideParams wp;
  EXPECT_THROW(compute_paths(Geometry{0.0, 1.0, 1.0, 5.0}, wp),
               std::invalid_argument);
  EXPECT_THROW(compute_paths(Geometry{10.0, 1.0, 1.0, 0.0}, wp),
               std::invalid_argument);
}

TEST(Device, ResponsesRollOffAboveFourKilohertz) {
  // Fig. 3a: response diminishes above 4 kHz on every device. Compare
  // against the in-band peak (individual in-band frequencies can sit in a
  // notch).
  for (DeviceModel m : {DeviceModel::kGalaxyS9, DeviceModel::kPixel4,
                        DeviceModel::kOnePlus8Pro, DeviceModel::kGalaxyWatch4}) {
    DeviceProfile dev(m, 1, CaseType::kNone);
    double peak = 0.0;
    for (double f = 1000.0; f <= 4000.0; f += 50.0) {
      peak = std::max(peak, dev.speaker_gain(f));
    }
    EXPECT_LT(dev.speaker_gain(8000.0), 0.35 * peak) << dev.name();
    EXPECT_LT(dev.speaker_gain(12000.0), dev.speaker_gain(8000.0)) << dev.name();
  }
}

TEST(Device, DifferentUnitsHaveDifferentNotches) {
  DeviceProfile a(DeviceModel::kGalaxyS9, 1, CaseType::kNone);
  DeviceProfile b(DeviceModel::kGalaxyS9, 2, CaseType::kNone);
  double max_diff_db = 0.0;
  for (double f = 1000.0; f <= 4500.0; f += 50.0) {
    const double d = std::abs(20.0 * std::log10(a.speaker_gain(f) /
                                                b.speaker_gain(f)));
    max_diff_db = std::max(max_diff_db, d);
  }
  EXPECT_GT(max_diff_db, 3.0);
}

TEST(Device, HardCaseAttenuatesMoreThanPouch) {
  DeviceProfile pouch(DeviceModel::kGalaxyS9, 1, CaseType::kSoftPouch);
  DeviceProfile hard(DeviceModel::kGalaxyS9, 1, CaseType::kHardCase);
  EXPECT_LT(hard.speaker_gain(2500.0), pouch.speaker_gain(2500.0));
  const double ratio_db =
      20.0 * std::log10(pouch.speaker_gain(2500.0) / hard.speaker_gain(2500.0));
  EXPECT_NEAR(ratio_db, 7.25, 2.0);  // ~6 dB extra insertion loss + slope
}

TEST(Device, OrientationLossGrowsWithAngle) {
  DeviceProfile dev(DeviceModel::kGalaxyS9, 1);
  const double g0 = dev.orientation_gain(0.0, 2500.0);
  const double g90 = dev.orientation_gain(90.0, 2500.0);
  const double g180 = dev.orientation_gain(180.0, 2500.0);
  EXPECT_NEAR(g0, 1.0, 1e-12);
  EXPECT_GT(g90, g180);
  EXPECT_LT(20.0 * std::log10(g180), -5.0);  // several dB of shadowing
}

TEST(Device, WatchIsQuieterThanPhone) {
  DeviceProfile phone(DeviceModel::kGalaxyS9, 1);
  DeviceProfile watch(DeviceModel::kGalaxyWatch4, 1);
  EXPECT_LT(watch.tx_level(), phone.tx_level());
}

TEST(Noise, SpectrumIsStrongestBelowOneKilohertz) {
  // Fig. 4: noise amplitude high below 1 kHz, decaying tail to ~4.5 kHz.
  NoiseParams np;
  NoiseGenerator gen(np, 48000.0, 7);
  const std::vector<double> nz = gen.generate(96000);
  dsp::Psd psd = dsp::welch_psd(nz, 48000.0, 2048);
  auto band_mean = [&](double lo, double hi) {
    double acc = 0.0;
    std::size_t cnt = 0;
    for (std::size_t k = 0; k < psd.freq_hz.size(); ++k) {
      if (psd.freq_hz[k] < lo || psd.freq_hz[k] > hi) continue;
      acc += psd.power[k];
      ++cnt;
    }
    return acc / static_cast<double>(cnt);
  };
  const double low = band_mean(100.0, 900.0);
  const double mid = band_mean(1500.0, 3000.0);
  const double high = band_mean(8000.0, 12000.0);
  EXPECT_GT(low, 5.0 * mid);
  EXPECT_GT(mid, 5.0 * high);
}

TEST(Noise, LevelOffsetScalesRms) {
  NoiseParams a;
  NoiseParams b;
  b.level_db = 9.0;  // the paper's cross-site spread
  NoiseGenerator ga(a, 48000.0, 3);
  NoiseGenerator gb(b, 48000.0, 3);
  const double ra = dsp::rms(ga.generate(48000));
  const double rb = dsp::rms(gb.generate(48000));
  EXPECT_NEAR(20.0 * std::log10(rb / ra), 9.0, 1.5);
}

TEST(Noise, DeterministicPerSeed) {
  NoiseParams np;
  NoiseGenerator a(np, 48000.0, 11);
  NoiseGenerator b(np, 48000.0, 11);
  EXPECT_EQ(a.generate(1000), b.generate(1000));
}

TEST(Noise, BubbleBurstsAreImpulsive) {
  NoiseParams np;
  np.bubble_rate_hz = 10.0;
  np.bubble_gain = 12.0;
  NoiseGenerator gen(np, 48000.0, 5);
  const std::vector<double> nz = gen.generate(96000);
  double peak = 0.0;
  for (double v : nz) peak = std::max(peak, std::abs(v));
  const double r = dsp::rms(nz);
  EXPECT_GT(peak / r, 6.0);  // crest factor far above Gaussian (~4)
}

// The sample-by-sample generator the FFT renderer replaced, kept as the
// oracle: direct-form FIR coloring scaled after the fact, a sin() call per
// tone per sample, the burst envelope decay recomputed per sample. Same
// seeds and the same draw order as NoiseGenerator, so the two must agree
// to rounding.
class OracleNoise {
 public:
  OracleNoise(const NoiseParams& p, double fs, std::uint64_t seed,
              const std::vector<double>& taps)
      : params_(p),
        fs_(fs),
        rng_(seed),
        burst_rng_(seed * 0x9E3779B97F4A7C15ULL + 0x6A09E667F3BCC909ULL),
        shaping_(taps) {
    std::mt19937_64 warm_rng(seed ^ 0xABCDEF);
    std::normal_distribution<double> g(0.0, 1.0);
    dsp::StreamingFir warm(taps);
    std::vector<double> white(8192);
    for (double& v : white) v = g(warm_rng);
    const double raw_rms = dsp::rms(warm.process(white));
    floor_rms_ = noise_floor_rms(p);
    gain_ = raw_rms > 0.0 ? floor_rms_ / raw_rms : 0.0;
  }

  std::vector<double> generate(std::size_t n) {
    std::vector<double> white(n);
    for (double& v : white) v = gauss_(rng_);
    std::vector<double> out = shaping_.process(white);
    for (double& v : out) v *= gain_;
    const double dt = 1.0 / fs_;
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    const double p_burst = params_.bubble_rate_hz * dt;
    for (std::size_t i = 0; i < n; ++i) {
      if (params_.bubble_rate_hz > 0.0 && uni(burst_rng_) < p_burst) {
        burst_remaining_ = 0.02 + 0.03 * uni(burst_rng_);
        burst_env_ = params_.bubble_gain * floor_rms_;
      }
      if (burst_remaining_ > 0.0) {
        out[i] += burst_env_ * burst_gauss_(burst_rng_);
        burst_env_ *= std::exp(-dt / 0.008);
        burst_remaining_ -= dt;
      }
      if (!params_.boat_tones_hz.empty()) {
        double tone_sum = 0.0;
        for (std::size_t j = 0; j < params_.boat_tones_hz.size(); ++j) {
          tone_sum += std::sin(dsp::kTwoPi * params_.boat_tones_hz[j] * t_ +
                               0.7 * static_cast<double>(j));
        }
        const double wander = 0.75 + 0.25 * std::sin(dsp::kTwoPi * 0.13 * t_);
        out[i] += params_.boat_tone_gain * floor_rms_ * wander * tone_sum /
                  static_cast<double>(params_.boat_tones_hz.size());
      }
      t_ += dt;
    }
    return out;
  }

 private:
  NoiseParams params_;
  double fs_;
  std::mt19937_64 rng_;
  std::mt19937_64 burst_rng_;
  std::normal_distribution<double> gauss_{0.0, 1.0};
  std::normal_distribution<double> burst_gauss_{0.0, 1.0};
  dsp::StreamingFir shaping_;
  double floor_rms_ = 0.0;
  double gain_ = 1.0;
  double t_ = 0.0;
  double burst_remaining_ = 0.0;
  double burst_env_ = 0.0;
};

TEST(Noise, FftRendererMatchesSampleBySampleOracle) {
  // Every site over 10 s, pulled in the medium's 10 ms blocks: the same
  // realization as the oracle (same draws, same order), so only rounding
  // may differ — and the tone phasors must not drift from the sin() clock.
  constexpr double kFs = 48000.0;
  constexpr std::size_t kTotal = 480000;
  constexpr std::size_t kBlock = 480;
  for (const Site site : all_sites()) {
    const NoiseParams np = site_preset(site).noise;
    NoiseGenerator gen(np, kFs, 4242);
    OracleNoise oracle(np, kFs, 4242, gen.shaping_taps());
    const std::vector<double> want = oracle.generate(kTotal);
    std::vector<double> got(kTotal);
    dsp::Workspace ws;
    for (std::size_t i = 0; i < kTotal; i += kBlock) {
      gen.generate_into(std::span<double>(got).subspan(i, kBlock), ws);
    }
    double max_err = 0.0;
    for (std::size_t i = 0; i < kTotal; ++i) {
      max_err = std::max(max_err, std::abs(got[i] - want[i]));
    }
    EXPECT_LE(max_err, 1e-9 * gen.floor_rms()) << site_name(site);
  }
}

TEST(Noise, ChunkingInvariantAcrossRefillBoundaries) {
  // Park has bursts and boat tones, so every per-refill state (coloring
  // history, burst envelope, phasor anchors) crosses the boundaries.
  const NoiseParams np = site_preset(Site::kPark).noise;
  NoiseGenerator ref_gen(np, 48000.0, 99);
  const std::size_t step = ref_gen.refill_step();
  constexpr std::size_t kTotal = 25000;
  const std::vector<double> want = ref_gen.generate(kTotal);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{479}, std::size_t{480}, step - 1, step,
        step + 1, std::size_t{10000}}) {
    NoiseGenerator gen(np, 48000.0, 99);
    std::vector<double> got(kTotal, 0.0);
    // Each mode leases from its own arena, and the reference used a
    // call-local one: the output must not depend on which arena a refill
    // borrowed.
    dsp::Workspace ws_write, ws_add;
    bool add = false;
    for (std::size_t i = 0; i < kTotal; i += chunk) {
      const std::span<double> part =
          std::span<double>(got).subspan(i, std::min(chunk, kTotal - i));
      // Alternate the two write modes: adding onto zeros must equal
      // writing.
      if (add) {
        gen.add_to(part, ws_add);
      } else {
        gen.generate_into(part, ws_write);
      }
      add = !add;
    }
    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(got[i], want[i]) << "chunk " << chunk << " sample " << i;
    }
  }
}

TEST(Mobility, RmsAccelerationMatchesPaperReadings) {
  // Numerically differentiate position twice and compare the RMS to the
  // accelerometer readings (2.5 / 5.1 m/s^2).
  for (auto [kind, expect] : {std::pair{MotionKind::kSlow, 2.5},
                              std::pair{MotionKind::kFast, 5.1}}) {
    MobilityModel m(kind, 77);
    const double dt = 0.001;
    double acc2 = 0.0;
    const int n = 20000;
    for (int i = 1; i + 1 < n; ++i) {
      const double t = static_cast<double>(i) * dt;
      const double a_h = (m.range_offset_m(t + dt) - 2.0 * m.range_offset_m(t) +
                          m.range_offset_m(t - dt)) / (dt * dt);
      const double a_v = (m.depth_offset_m(t + dt) - 2.0 * m.depth_offset_m(t) +
                          m.depth_offset_m(t - dt)) / (dt * dt);
      acc2 += a_h * a_h + a_v * a_v;
    }
    const double rms = std::sqrt(acc2 / static_cast<double>(n - 2));
    EXPECT_NEAR(rms, expect, 0.45 * expect) << "kind " << static_cast<int>(kind);
    EXPECT_NEAR(m.rms_acceleration(), expect, 1e-12);
  }
}

TEST(Mobility, StaticMeansNoSwing) {
  MobilityModel m(MotionKind::kStatic, 3);
  EXPECT_NEAR(m.range_offset_m(1.0), 0.0, 1e-9);
  EXPECT_NEAR(m.depth_offset_m(2.0), 0.0, 1e-9);
}

TEST(Environment, AllSixSitesExist) {
  EXPECT_EQ(all_sites().size(), 6u);
  for (Site s : all_sites()) {
    const SitePreset p = site_preset(s);
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.water_depth_m, 0.0);
    EXPECT_GT(p.max_range_m, 0.0);
  }
  EXPECT_EQ(site_preset(Site::kBay).water_depth_m, 15.0);   // deepest
  EXPECT_EQ(site_preset(Site::kMuseum).water_depth_m, 9.0);
  EXPECT_GE(site_preset(Site::kBeach).max_range_m, 100.0);  // longest
}

TEST(Environment, LakeIsNoisiestAndMostCluttered) {
  const SitePreset bridge = site_preset(Site::kBridge);
  const SitePreset lake = site_preset(Site::kLake);
  EXPECT_NEAR(lake.noise.level_db - bridge.noise.level_db, 9.0, 1e-9);
  EXPECT_GT(lake.waveguide.scatterer_count, bridge.waveguide.scatterer_count);
}

TEST(UnderwaterChannel, SignalArrivesAfterBulkDelay) {
  LinkConfig lc;
  lc.range_m = 15.0;
  lc.noise_enabled = false;
  UnderwaterChannel ch(lc);
  EXPECT_NEAR(ch.bulk_delay_s(), 15.0 / kSoundSpeedWater, 0.0025);
  std::vector<double> pulse(200, 0.0);
  pulse[0] = 1.0;
  dsp::Workspace ws;
  const std::vector<double> rx = ch.transmit(pulse, ws, 0.01, 0.01);
  // Nothing before lead-in + bulk delay (minus margin).
  const std::size_t first_possible =
      static_cast<std::size_t>((0.01 + ch.bulk_delay_s()) * 48000.0);
  for (std::size_t i = 0; i < first_possible; ++i) {
    EXPECT_NEAR(rx[i], 0.0, 1e-12);
  }
  EXPECT_GT(dsp::energy(rx), 0.0);
}

TEST(UnderwaterChannel, ReciprocityHoldsInAirButNotUnderwater) {
  // Fig. 3c,d: forward/backward responses match in air, diverge in water.
  auto response_diff_db = [](bool in_air) {
    LinkConfig fwd;
    fwd.range_m = 2.0;
    fwd.in_air = in_air;
    fwd.noise_enabled = false;
    // Same model, two physical units — the paper's Fig. 3c,d setup.
    fwd.tx_device = DeviceProfile(DeviceModel::kGalaxyS9, 1);
    fwd.rx_device = DeviceProfile(DeviceModel::kGalaxyS9, 2);
    UnderwaterChannel f(fwd);
    UnderwaterChannel b(reverse_link(fwd));
    double acc = 0.0;
    int cnt = 0;
    for (double freq = 1000.0; freq <= 3000.0; freq += 50.0) {
      const double df = 20.0 * std::log10(
          (f.frequency_response_mag(freq) + 1e-12) /
          (b.frequency_response_mag(freq) + 1e-12));
      acc += df * df;
      ++cnt;
    }
    return std::sqrt(acc / cnt);
  };
  const double air = response_diff_db(true);
  const double water = response_diff_db(false);
  EXPECT_LT(air, 1.0);        // near-identical in air
  EXPECT_GT(water, 3.0 * air);  // clearly different underwater
}

TEST(UnderwaterChannel, SnrFallsWithRange) {
  double prev = 1e9;
  for (double r : {5.0, 10.0, 20.0}) {
    LinkConfig lc;
    lc.range_m = r;
    lc.seed = 5;
    UnderwaterChannel ch(lc);
    const double snr = ch.analytic_snr_db(2500.0, 1000.0, 4000.0);
    EXPECT_LT(snr, prev) << "range " << r;
    prev = snr;
  }
}

TEST(UnderwaterChannel, MobilityMakesOutputTimeVarying) {
  LinkConfig lc;
  lc.range_m = 5.0;
  lc.noise_enabled = false;
  lc.motion = MotionKind::kFast;
  lc.site = site_preset(Site::kLake);
  UnderwaterChannel moving(lc);
  lc.motion = MotionKind::kStatic;
  LinkConfig static_cfg = lc;
  static_cfg.site.surface_roughness = 0.0;
  static_cfg.site.drift_mps = 0.0;
  UnderwaterChannel still(static_cfg);
  // A long tone through the moving channel shows amplitude modulation.
  const std::vector<double> x = dsp::tone(2000.0, 1.0, 48000.0, 0.3);
  auto envelope_var = [](const std::vector<double>& y) {
    // RMS per 10 ms block.
    std::vector<double> env;
    for (std::size_t i = 0; i + 480 <= y.size(); i += 480) {
      env.push_back(dsp::rms(std::span<const double>(y).subspan(i, 480)));
    }
    // Trim edges (lead-in/tail).
    double mean = 0.0, var = 0.0;
    const std::size_t lo = env.size() / 4, hi = 3 * env.size() / 4;
    for (std::size_t i = lo; i < hi; ++i) mean += env[i];
    mean /= static_cast<double>(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      var += (env[i] - mean) * (env[i] - mean);
    }
    return var / (mean * mean * static_cast<double>(hi - lo));
  };
  dsp::Workspace ws;
  const double mv = envelope_var(moving.transmit(x, ws));
  const double sv = envelope_var(still.transmit(x, ws));
  EXPECT_GT(mv, 5.0 * sv);
}

TEST(UnderwaterChannel, EmptyTransmitYieldsNoiseOnlyTimeline) {
  // An empty tx waveform must still produce the lead-in/tail ambient-noise
  // timeline (useful for probing the channel), not throw.
  LinkConfig lc;
  UnderwaterChannel ch(lc);
  dsp::Workspace ws;
  const std::vector<double> rx = ch.transmit({}, ws, 0.01, 0.01);
  EXPECT_GE(rx.size(), static_cast<std::size_t>(0.02 * 48000.0));
  EXPECT_GT(dsp::energy(rx), 0.0);  // ambient noise is on by default
}

// Streams `x` through a fresh Bay stream (rough surface, fast mobility) in
// pushes of `chunk` samples.
std::vector<double> stream_through(const UnderwaterChannel& ch,
                                   std::span<const double> x,
                                   std::size_t chunk) {
  UnderwaterChannel::Stream s = ch.stream();
  dsp::Workspace ws;
  std::vector<double> out;
  for (std::size_t base = 0; base < x.size(); base += chunk) {
    s.push(x.subspan(base, std::min(chunk, x.size() - base)), out, ws);
  }
  return out;
}

LinkConfig moving_bay_link() {
  LinkConfig lc;
  lc.site = site_preset(Site::kBay);
  lc.range_m = 12.0;
  lc.motion = MotionKind::kFast;
  lc.noise_enabled = false;
  lc.seed = 9;
  return lc;
}

TEST(UnderwaterChannelStream, SilenceBetweenChirpsIsChunkingInvariant) {
  const UnderwaterChannel ch(moving_bay_link());
  ASSERT_GT(ch.config().site.surface_roughness, 0.0);
  const double fs = ch.config().sample_rate_hz;
  std::vector<double> chirp = dsp::lfm_chirp(1000.0, 4000.0, 0.1, fs);
  for (double& v : chirp) v *= 0.5;
  const std::size_t gap = static_cast<std::size_t>(1.2 * fs);
  const std::size_t second = chirp.size() + gap;
  std::vector<double> x(chirp.begin(), chirp.end());
  x.resize(second, 0.0);
  x.insert(x.end(), chirp.begin(), chirp.end());
  x.resize(x.size() + static_cast<std::size_t>(0.5 * fs), 0.0);

  const std::vector<double> whole = stream_through(ch, x, x.size());
  ASSERT_EQ(whole.size(), x.size());
  for (const std::size_t chunk : {1, 480, 777}) {
    const std::vector<double> o = stream_through(ch, x, chunk);
    ASSERT_EQ(o.size(), whole.size());
    EXPECT_EQ(std::memcmp(o.data(), whole.data(), o.size() * sizeof(double)),
              0)
        << "chunk " << chunk;
  }

  // The gap drains to exact zeros: no window or block there holds a
  // non-zero sample. (Each FFT stage smears round-off up to one block
  // ahead of the second chirp, which the latency pad absorbs.)
  const std::size_t ref_offset =
      static_cast<std::size_t>(std::llround(ch.bulk_delay_s() * fs));
  const std::size_t drained = second - gap / 2;
  for (std::size_t i = drained; i < second + ref_offset; ++i) {
    ASSERT_EQ(whole[i], 0.0) << "sample " << i;
  }
  // The second chirp lands at the bulk delay plus the chain latency, give
  // or take the two 512-tap device filters' group delay.
  const std::size_t arrival =
      second + ref_offset + ch.stream().extra_latency();
  double peak = 0.0;
  for (const double v : whole) peak = std::max(peak, std::abs(v));
  std::size_t first = drained;
  while (first < whole.size() && std::abs(whole[first]) < 1e-6 * peak) {
    ++first;
  }
  EXPECT_GE(first, arrival);
  EXPECT_LT(first, arrival + static_cast<std::size_t>(0.015 * fs));
  const auto energy = [&](std::size_t from) {
    return dsp::energy(std::span<const double>(whole).subspan(
        from, chirp.size() + static_cast<std::size_t>(0.02 * fs)));
  };
  EXPECT_GT(energy(arrival), 0.1 * energy(arrival - second));

  // Silent blocks still draw their roughness sample: without the first
  // chirp, the second one renders through the very same paths.
  std::vector<double> late_only(x.size(), 0.0);
  std::copy(chirp.begin(), chirp.end(),
            late_only.begin() + static_cast<std::ptrdiff_t>(second));
  const std::vector<double> late = stream_through(ch, late_only, 480);
  EXPECT_EQ(std::memcmp(late.data() + drained, whole.data() + drained,
                        (whole.size() - drained) * sizeof(double)),
            0);
}

TEST(UnderwaterChannelStream, AllZeroInputGivesExactZeros) {
  const UnderwaterChannel ch(moving_bay_link());
  const std::vector<double> x(static_cast<std::size_t>(1.5 * 48000.0), 0.0);
  for (const std::size_t chunk : {480, 777}) {
    const std::vector<double> o = stream_through(ch, x, chunk);
    ASSERT_EQ(o.size(), x.size());
    for (std::size_t i = 0; i < o.size(); ++i) {
      ASSERT_EQ(o[i], 0.0) << "sample " << i;
      ASSERT_FALSE(std::signbit(o[i])) << "sample " << i;
    }
  }
}

// What transmit(x, ws, lead_s, tail_s) must return on a fresh noise-free
// channel over `cfg`: the stream output of x plus silence with
// extra_latency() dropped, framed by the lead-in and tail. The body length
// is taken from `rx`; after it the stream holds only FFT rounding.
std::vector<double> as_stream_run(const LinkConfig& cfg,
                                  std::span<const double> x, double lead_s,
                                  double tail_s,
                                  const std::vector<double>& rx) {
  const double fs = cfg.sample_rate_hz;
  const std::size_t lead = static_cast<std::size_t>(lead_s * fs);
  const std::size_t tail = static_cast<std::size_t>(tail_s * fs);
  const UnderwaterChannel ch(cfg);
  std::vector<double> padded(x.begin(), x.end());
  padded.resize(x.size() + static_cast<std::size_t>(fs), 0.0);
  const std::vector<double> s = stream_through(ch, padded, 777);
  const std::size_t drop = ch.stream().extra_latency();
  const std::size_t body = rx.size() - lead - tail;
  EXPECT_LT(drop + body, s.size());
  double residual = 0.0;
  for (std::size_t i = drop + body; i < s.size(); ++i) {
    residual = std::max(residual, std::abs(s[i]));
  }
  EXPECT_LT(residual, 1e-12);
  std::vector<double> expected(lead, 0.0);
  expected.insert(expected.end(),
                  s.begin() + static_cast<std::ptrdiff_t>(drop),
                  s.begin() + static_cast<std::ptrdiff_t>(drop + body));
  expected.resize(expected.size() + tail, 0.0);
  return expected;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(UnderwaterChannel, TransmitIsOneStreamRun) {
  std::vector<double> x = dsp::lfm_chirp(1000.0, 4000.0, 0.05, 48000.0);
  for (double& v : x) v *= 0.5;
  dsp::Workspace ws;

  // In air (fixed impulse response): bit for bit the stream, with the body
  // starting at the bulk delay after the lead-in.
  LinkConfig air;
  air.in_air = true;
  air.range_m = 2.0;
  air.noise_enabled = false;
  UnderwaterChannel ch(air);
  const std::vector<double> rx = ch.transmit(x, ws, 0.01, 0.02);
  EXPECT_TRUE(same_bits(rx, as_stream_run(air, x, 0.01, 0.02, rx)));
  const std::size_t body_start =
      static_cast<std::size_t>(0.01 * 48000.0) +
      static_cast<std::size_t>(std::llround(ch.bulk_delay_s() * 48000.0));
  for (std::size_t i = 0; i < body_start; ++i) ASSERT_EQ(rx[i], 0.0);
  // The body is exactly the full convolution: speaker, the link's one
  // impulse response (rebuilt here from its single air path) and mic.
  const double path_m = std::hypot(
      air.range_m, (air.tx_depth_m + air.tx_device.speaker_offset_m()) -
                       (air.rx_depth_m + air.rx_device.mic_offset_m()));
  const std::size_t ir_taps =
      paths_to_impulse_response_ref(
          {{path_m / kSoundSpeedAir, 1.0 / std::max(path_m, 1.0), 0, 0}},
          48000.0, ch.bulk_delay_s())
          .size();
  EXPECT_EQ(rx.size(), body_start + x.size() +
                           link_device_fir(air, /*speaker=*/true).size() +
                           ir_taps +
                           link_device_fir(air, /*speaker=*/false).size() - 3 +
                           static_cast<std::size_t>(0.02 * 48000.0));

  // A rough Bay surface with no motion or drift: the first packet is the
  // fresh stream run, and the second differs from it only because the
  // stream borrowed the channel's roughness RNG and handed it back.
  LinkConfig bay;
  bay.site = site_preset(Site::kBay);
  bay.site.drift_mps = 0.0;
  bay.range_m = 12.0;
  bay.noise_enabled = false;
  ASSERT_GT(bay.site.surface_roughness, 0.0);
  UnderwaterChannel rough(bay);
  const std::vector<double> first = rough.transmit(x, ws);
  EXPECT_TRUE(same_bits(first, as_stream_run(bay, x, 0.05, 0.05, first)));
  const std::vector<double> second = rough.transmit(x, ws);
  EXPECT_FALSE(same_bits(first, second));
}

TEST(UnderwaterChannel, RejectsNonPositiveRange) {
  LinkConfig lc;
  lc.range_m = 0.0;
  EXPECT_THROW(UnderwaterChannel{lc}, std::invalid_argument);
}

}  // namespace
}  // namespace aqua::channel
