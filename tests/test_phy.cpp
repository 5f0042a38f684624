// PHY layer: OFDM framing, preamble detection, channel/SNR estimation,
// Algorithm-1 band selection, feedback symbols, MMSE equalizer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel.h"
#include "dsp/fir.h"
#include "dsp/linalg.h"
#include "dsp/simd.h"
#include "dsp/workspace.h"
#include "phy/bandselect.h"
#include "phy/chanest.h"
#include "phy/equalizer.h"
#include "phy/feedback.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "equalizer_oracle.h"
#include "feedback_oracle.h"
#include "preamble_oracle.h"

namespace aqua::phy {
namespace {

TEST(Params, PaperNumerology) {
  const OfdmParams p;
  EXPECT_EQ(p.symbol_samples(), 960u);   // 20 ms at 48 kHz
  EXPECT_EQ(p.cp_samples(), 67u);        // 6.9 % overhead
  EXPECT_EQ(p.first_bin(), 20u);         // 1 kHz
  EXPECT_EQ(p.num_bins(), 60u);          // 1-4 kHz
  EXPECT_EQ(p.equalizer_taps(), 480u);   // channel length L
  // 19 selected bins at 2/3 coding = the paper's 633.3 bps.
  EXPECT_NEAR(p.reported_bitrate_bps(19), 633.33, 0.01);
  EXPECT_NEAR(p.reported_bitrate_bps(4), 133.33, 0.01);
}

TEST(Params, SpacingVariantsScale) {
  const OfdmParams p25 = OfdmParams::with_spacing(25.0);
  EXPECT_EQ(p25.symbol_samples(), 1920u);  // 40 ms
  EXPECT_EQ(p25.num_bins(), 120u);
  const OfdmParams p10 = OfdmParams::with_spacing(10.0);
  EXPECT_EQ(p10.symbol_samples(), 4800u);  // 100 ms
  EXPECT_EQ(p10.num_bins(), 300u);
}

TEST(Ofdm, ModulateDemodulateRoundTrip) {
  const OfdmParams p;
  Ofdm ofdm(p);
  std::mt19937_64 rng(5);
  std::vector<dsp::cplx> bins(p.num_bins());
  for (auto& b : bins) b = {rng() & 1 ? 1.0 : -1.0, 0.0};
  const std::vector<double> sym = ofdm.modulate(bins);
  EXPECT_EQ(sym.size(), p.symbol_samples());
  const std::vector<dsp::cplx> back = ofdm.demodulate(sym);
  const double scale = ofdm.power_norm(p.num_bins());
  for (std::size_t k = 0; k < bins.size(); ++k) {
    EXPECT_NEAR(back[k].real() / scale, bins[k].real(), 1e-9);
    EXPECT_NEAR(back[k].imag() / scale, bins[k].imag(), 1e-9);
  }
}

TEST(Ofdm, TransmitPowerIsIndependentOfBandWidth) {
  // Power reallocation (section 2.2.2): narrower band, same total power.
  const OfdmParams p;
  Ofdm ofdm(p);
  for (std::size_t width : {2u, 10u, 30u, 60u}) {
    std::vector<dsp::cplx> bins(width, dsp::cplx{1.0, 0.0});
    const std::vector<double> sym = ofdm.modulate_at(bins, 0);
    EXPECT_NEAR(dsp::mean_power(std::span<const double>(sym)), 0.05,
                0.05 * 0.05)
        << "width " << width;
  }
}

TEST(Ofdm, CyclicPrefixCopiesTail) {
  const OfdmParams p;
  Ofdm ofdm(p);
  std::vector<dsp::cplx> bins(p.num_bins(), dsp::cplx{1.0, 0.0});
  const std::vector<double> sym = ofdm.modulate(bins);
  const std::vector<double> with_cp = ofdm.add_cp(sym);
  ASSERT_EQ(with_cp.size(), p.symbol_total_samples());
  for (std::size_t i = 0; i < p.cp_samples(); ++i) {
    EXPECT_EQ(with_cp[i], sym[sym.size() - p.cp_samples() + i]);
  }
}

TEST(Ofdm, RejectsOutOfBandPlacement) {
  const OfdmParams p;
  Ofdm ofdm(p);
  std::vector<dsp::cplx> bins(10, dsp::cplx{1.0, 0.0});
  EXPECT_THROW(ofdm.modulate_at(bins, 55), std::invalid_argument);
}

TEST(Preamble, DetectsItselfCleanly) {
  const OfdmParams p;
  Preamble pre(p);
  // Preamble embedded in silence.
  std::vector<double> signal(5000, 0.0);
  const std::vector<double>& w = pre.waveform();
  signal.insert(signal.end(), w.begin(), w.end());
  signal.resize(signal.size() + 5000, 0.0);
  dsp::Workspace ws;
  auto det = pre.detect(signal, ws);
  ASSERT_TRUE(det.has_value());
  // Start of first symbol = 5000 + CP.
  EXPECT_NEAR(static_cast<double>(det->start_index),
              5000.0 + static_cast<double>(p.cp_samples()), 24.0);
  EXPECT_GT(det->sliding_metric, 0.6);  // paper: clean preamble > 0.6
}

TEST(Preamble, NoFalseAlarmOnNoise) {
  const OfdmParams p;
  Preamble pre(p);
  std::mt19937_64 rng(9);
  std::normal_distribution<double> g(0.0, 0.1);
  std::vector<double> noise(48000);
  for (auto& v : noise) v = g(rng);
  dsp::Workspace ws;
  EXPECT_FALSE(pre.detect(noise, ws).has_value());
}

TEST(Preamble, NoFalseAlarmOnImpulsiveNoise) {
  // Spiky bursts are what defeats plain cross-correlation (section 2.2.1);
  // the sliding metric must stay quiet.
  const OfdmParams p;
  Preamble pre(p);
  std::mt19937_64 rng(10);
  std::normal_distribution<double> g(0.0, 0.02);
  std::vector<double> noise(48000);
  for (auto& v : noise) v = g(rng);
  std::uniform_int_distribution<std::size_t> pos(0, noise.size() - 200);
  for (int burst = 0; burst < 20; ++burst) {
    const std::size_t at = pos(rng);
    for (std::size_t i = 0; i < 150; ++i) {
      noise[at + i] += 2.0 * g(rng) * std::exp(-static_cast<double>(i) / 30.0) * 50.0;
    }
  }
  dsp::Workspace ws;
  EXPECT_FALSE(pre.detect(noise, ws).has_value());
}

TEST(Preamble, SurvivesMultipathAndNoise) {
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kLake);
  lc.range_m = 10.0;
  lc.seed = 33;
  channel::UnderwaterChannel ch(lc);
  const OfdmParams p;
  Preamble pre(p);
  dsp::Workspace ws;
  const std::vector<double> rx = ch.transmit(pre.waveform(), ws);
  auto det = pre.detect(rx, ws);
  ASSERT_TRUE(det.has_value());
  EXPECT_GT(det->sliding_metric, 0.3);
}

// --- Batch confirmation against the per-dot reference. -------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_detection(const std::optional<PreambleDetection>& got,
                           const std::optional<PreambleDetection>& want,
                           const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want) return;
  EXPECT_EQ(got->start_index, want->start_index) << what;
  EXPECT_TRUE(same_bits(got->sliding_metric, want->sliding_metric))
      << what << ": " << got->sliding_metric << " vs " << want->sliding_metric;
  EXPECT_TRUE(same_bits(got->coarse_peak, want->coarse_peak)) << what;
}

// Captures that put the preamble mid-stream, at the very start (the
// confirmation range clamps at 0), cut off at the end (starts whose window
// leaves the signal score 0), through multipath at three ranges, and
// none at all.
std::vector<std::pair<std::string, std::vector<double>>> preamble_captures(
    const OfdmParams& p, const Preamble& pre) {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  const std::vector<double>& w = pre.waveform();
  std::mt19937_64 rng(21);
  std::normal_distribution<double> g(0.0, 0.02);
  const auto noisy = [&](std::size_t lead, std::size_t tail) {
    std::vector<double> x(lead, 0.0);
    x.insert(x.end(), w.begin(), w.end());
    x.resize(x.size() + tail, 0.0);
    for (double& v : x) v += g(rng);
    return x;
  };
  out.emplace_back("mid-stream", noisy(5000, 5000));
  out.emplace_back("at start", noisy(3, 4000));
  std::vector<double> cut = noisy(4000, 0);
  cut.resize(cut.size() - p.symbol_samples() / 3);
  out.emplace_back("cut off", cut);
  dsp::Workspace ws;
  for (const double range : {5.0, 10.0, 30.0}) {
    channel::LinkConfig lc;
    lc.site = channel::site_preset(channel::Site::kLake);
    lc.range_m = range;
    lc.seed = 33 + static_cast<std::uint32_t>(range);
    channel::UnderwaterChannel ch(lc);
    out.emplace_back("lake " + std::to_string(range) + " m",
                     ch.transmit(w, ws, 0.05, 0.3));
  }
  std::vector<double> noise(30000);
  for (double& v : noise) v = 5.0 * g(rng);
  out.emplace_back("noise only", noise);
  return out;
}

// The batch kernel over the confirmation's batches (step 8 and the fine
// pass's step 1, partial batches included) on real captures: every start's
// eight dots equal the separate `dot` calls bit for bit.
template <typename T>
void expect_segment_dots_match(std::span<const T> x, std::size_t n,
                               std::size_t core, const std::string& what) {
  constexpr std::size_t kSeg = dsp::simd::kSegments;
  const dsp::simd::Kernels& kern = dsp::simd::active();
  std::vector<T> out(9 * kSeg);
  for (const std::size_t stride : {std::size_t{1}, Preamble::kSlidingStep}) {
    for (std::size_t count = 1; count <= 9; ++count) {
      const std::size_t span = (count - 1) * stride + core;
      for (std::size_t at = (count * 37) % 11; at + span <= x.size();
           at += 1009 + count) {
        dsp::simd::segment_dots(kern, x.data() + at, n, stride, count,
                                out.data());
        for (std::size_t c = 0; c < count; ++c) {
          const auto want =
              oracle::reference_segment_dots(x, n, at + c * stride);
          ASSERT_EQ(std::memcmp(out.data() + c * kSeg, want.data(),
                                kSeg * sizeof(T)),
                    0)
              << what << " start " << at + c * stride << " stride "
              << stride << " count " << count;
        }
      }
    }
  }
}

TEST(PreambleOracle, SegmentDotsMatchPerDotReferenceBitForBit) {
  const OfdmParams p;
  Preamble pre(p);
  for (const auto& [what, x] : preamble_captures(p, pre)) {
    expect_segment_dots_match<double>(x, p.symbol_samples(),
                                      pre.core_samples(), what);
    const std::vector<float> xf = dsp::convert_samples<float>(x);
    expect_segment_dots_match<float>(xf, p.symbol_samples(),
                                     pre.core_samples(), what + " float");
  }
}

TEST(PreambleOracle, DetectMatchesReferenceBitForBit) {
  const OfdmParams p;
  Preamble pre(p);
  dsp::Workspace ws;
  std::size_t detected = 0;
  for (const auto& [what, x] : preamble_captures(p, pre)) {
    const auto got = pre.detect(x, ws);
    expect_same_detection(got, oracle::reference_detect(p, pre, x, ws), what);
    detected += got.has_value() ? 1 : 0;
  }
  // Every capture but the noise-only one carries a preamble.
  EXPECT_GE(detected, 5u);
}

TEST(PreambleOracle, DetectMatchesReferenceOnNanAndInfBearingCaptures) {
  const OfdmParams p;
  Preamble pre(p);
  dsp::Workspace ws;
  auto captures = preamble_captures(p, pre);
  for (auto& [what, x] : captures) {
    x[x.size() / 2] = std::numeric_limits<double>::quiet_NaN();
    x[x.size() / 3] = std::numeric_limits<double>::infinity();
    expect_same_detection(pre.detect(x, ws),
                          oracle::reference_detect(p, pre, x, ws), what);
  }
}

TEST(ChannelEstimate, RecoversSnrInAwgn) {
  // Known AWGN per bin: the estimator should land within ~2 dB.
  const OfdmParams p;
  Ofdm ofdm(p);
  Preamble pre(p);
  std::mt19937_64 rng(3);
  const double snr_db = 15.0;
  // Build 8 preamble symbols + white noise whose per-bin SNR is snr_db.
  const std::vector<double>& w = pre.waveform();
  std::vector<double> rx(w.begin() + static_cast<std::ptrdiff_t>(p.cp_samples()),
                         w.end());
  // Frequency-domain per-bin signal power is scale^2 (unit-modulus CAZAC
  // times the modulator's power norm). White noise of variance s^2 has
  // per-bin DFT power N*s^2. Solve for s^2 at the target SNR.
  Ofdm ofdm_ref(p);
  const double scale = ofdm_ref.power_norm(p.num_bins());
  const double noise_power =
      scale * scale /
      (static_cast<double>(p.symbol_samples()) * dsp::db_to_power(snr_db));
  std::normal_distribution<double> g(0.0, std::sqrt(noise_power));
  for (auto& v : rx) v += g(rng);
  dsp::Workspace ws;
  ChannelEstimate est = estimate_channel(ofdm, rx, pre.cazac_bins(), ws);
  ASSERT_EQ(est.snr_db.size(), 60u);
  double avg = 0.0;
  for (double s : est.snr_db) avg += s;
  avg /= 60.0;
  EXPECT_NEAR(avg, snr_db, 3.0);
}

TEST(ChannelEstimate, FlatChannelGivesFlatH) {
  const OfdmParams p;
  Ofdm ofdm(p);
  Preamble pre(p);
  const std::vector<double>& w = pre.waveform();
  const std::vector<double> rx(
      w.begin() + static_cast<std::ptrdiff_t>(p.cp_samples()), w.end());
  dsp::Workspace ws;
  ChannelEstimate est = estimate_channel(ofdm, rx, pre.cazac_bins(), ws);
  for (std::size_t k = 0; k < est.h.size(); ++k) {
    EXPECT_NEAR(std::abs(est.h[k]), 1.0, 1e-6) << "bin " << k;
    EXPECT_GT(est.snr_db[k], 60.0);
  }
}

TEST(BandSelect, AllGoodBinsSelectEverything) {
  std::vector<double> snr(60, 20.0);
  const BandSelection band = select_band(snr, 7.0, 0.8);
  EXPECT_EQ(band.begin_bin, 0u);
  EXPECT_EQ(band.end_bin, 59u);
  EXPECT_FALSE(band.fallback);
}

TEST(BandSelect, DeepNotchSplitsTheBand) {
  std::vector<double> snr(60, 12.0);
  for (std::size_t k = 25; k < 30; ++k) snr[k] = -5.0;
  const BandSelection band = select_band(snr, 7.0, 0.8);
  // Larger side: bins 30..59 (width 30).
  EXPECT_EQ(band.begin_bin, 30u);
  EXPECT_EQ(band.end_bin, 59u);
}

TEST(BandSelect, ReallocationBonusRescuesNarrowBand) {
  // All bins at 3 dB: full band fails (3 < 7), but a width-L window gains
  // lambda*10*log10(60/L). Width 5 -> bonus 8.6 dB -> 11.6 > 7.
  std::vector<double> snr(60, 3.0);
  const BandSelection band = select_band(snr, 7.0, 0.8);
  EXPECT_FALSE(band.fallback);
  const double bonus =
      0.8 * 10.0 * std::log10(60.0 / static_cast<double>(band.width()));
  EXPECT_GT(3.0 + bonus, 7.0);
  // Maximality: one more bin would break the constraint.
  const double bonus_plus = 0.8 * 10.0 *
      std::log10(60.0 / static_cast<double>(band.width() + 1));
  EXPECT_LE(3.0 + bonus_plus, 7.0);
}

TEST(BandSelect, HopelessChannelFallsBackToBestBin) {
  std::vector<double> snr(60, -30.0);
  snr[17] = -10.0;
  const BandSelection band = select_band(snr, 7.0, 0.8);
  EXPECT_TRUE(band.fallback);
  EXPECT_EQ(band.begin_bin, 17u);
  EXPECT_EQ(band.end_bin, 17u);
}

TEST(BandSelect, PrefersWidestWindow) {
  // Two candidate runs: width 20 strong, width 35 marginal-but-passing.
  std::vector<double> snr(60, -10.0);
  for (std::size_t k = 0; k < 20; ++k) snr[k] = 30.0;
  for (std::size_t k = 25; k < 60; ++k) snr[k] = 7.2;  // +bonus clears 7
  const BandSelection band = select_band(snr, 7.0, 0.8);
  EXPECT_EQ(band.width(), 35u);
  EXPECT_EQ(band.begin_bin, 25u);
}

class LambdaSweep : public ::testing::TestWithParam<double> {};

TEST_P(LambdaSweep, HigherLambdaNeverShrinksTheBand) {
  // lambda scales the reallocation bonus: larger lambda = more optimistic,
  // so the selected width must be monotonically nondecreasing in lambda.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam() * 1000.0) + 3);
  std::normal_distribution<double> g(8.0, 6.0);
  std::vector<double> snr(60);
  for (auto& s : snr) s = g(rng);
  const double lambda = GetParam();
  const BandSelection lo = select_band(snr, 7.0, lambda);
  const BandSelection hi = select_band(snr, 7.0, std::min(1.0, lambda + 0.2));
  EXPECT_GE(hi.width(), lo.width());
}

INSTANTIATE_TEST_SUITE_P(Lambdas, LambdaSweep,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8));

TEST(Feedback, RoundTripsCleanly) {
  const OfdmParams p;
  FeedbackCodec fb(p);
  dsp::Workspace ws;
  for (auto [b, e] : {std::pair<std::size_t, std::size_t>{0, 59},
                      {10, 30},
                      {40, 50},
                      {7, 7}}) {
    BandSelection band{b, e, false};
    std::vector<double> sym = fb.encode_band(band);
    // Surround with silence.
    std::vector<double> signal(3000, 0.0);
    signal.insert(signal.end(), sym.begin(), sym.end());
    signal.resize(signal.size() + 3000, 0.0);
    auto dec = fb.decode_band(signal, 8, 0.3, ws);
    ASSERT_TRUE(dec.has_value()) << "band " << b << "-" << e;
    EXPECT_EQ(dec->band.begin_bin, b);
    EXPECT_EQ(dec->band.end_bin, e);
  }
}

TEST(Feedback, ToneRoundTripsForIdsAndAck) {
  const OfdmParams p;
  FeedbackCodec fb(p);
  dsp::Workspace ws;
  for (std::size_t bin : {FeedbackCodec::kAckBin, std::size_t{28},
                          std::size_t{59}}) {
    std::vector<double> sym = fb.encode_tone(bin);
    std::vector<double> signal(2500, 0.0);
    signal.insert(signal.end(), sym.begin(), sym.end());
    signal.resize(signal.size() + 2500, 0.0);
    auto dec = fb.decode_tone(signal, 8, 0.3, ws);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->bin, bin);
  }
}

TEST(Feedback, SurvivesTheUnknownBackwardChannel) {
  // The key property (section 2.2.3): all power in two bins decodes
  // without any channel knowledge, over a realistic reverse link.
  const OfdmParams p;
  FeedbackCodec fb(p);
  dsp::Workspace ws;
  int exact = 0;
  const int trials = 10;
  for (int i = 0; i < trials; ++i) {
    channel::LinkConfig lc;
    lc.site = channel::site_preset(channel::Site::kLake);
    lc.range_m = 10.0;
    lc.seed = 500 + i;
    channel::UnderwaterChannel ch(channel::reverse_link(lc));
    BandSelection band{12, 34, false};
    const std::vector<double> rx = ch.transmit(fb.encode_band(band), ws);
    auto dec = fb.decode_band(rx, 8, 0.3, ws);
    if (dec && dec->band.begin_bin == 12 && dec->band.end_bin == 34) ++exact;
  }
  EXPECT_GE(exact, 8) << "feedback should decode almost always at 10 m";
}

TEST(Feedback, NothingDetectedInPureNoise) {
  const OfdmParams p;
  FeedbackCodec fb(p);
  std::mt19937_64 rng(12);
  std::normal_distribution<double> g(0.0, 0.05);
  std::vector<double> noise(20000);
  for (auto& v : noise) v = g(rng);
  dsp::Workspace ws;
  EXPECT_FALSE(fb.decode_band(noise, 8, 0.3, ws).has_value());
  EXPECT_FALSE(fb.decode_tone(noise, 8, 0.3, ws).has_value());
}

// --- Decoder oracle: the row-table moving DFT and the lazy median must
// reproduce the pre-change decoders (tests/feedback_oracle.h) bit for bit.

// `burst` between `lead` and `tail` samples of silence, plus white noise.
std::vector<double> oracle_capture(const std::vector<double>& burst,
                                   std::size_t lead, std::size_t tail,
                                   double sigma, std::uint64_t seed) {
  std::vector<double> x(lead, 0.0);
  x.insert(x.end(), burst.begin(), burst.end());
  x.resize(x.size() + tail, 0.0);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, sigma);
  for (double& v : x) v += g(rng);
  return x;
}

// One repeated OFDM symbol (with CP) carrying `amps` on the listed bins.
std::vector<double> oracle_tones(
    const OfdmParams& p,
    std::initializer_list<std::pair<std::size_t, double>> amps) {
  const Ofdm ofdm(p);
  std::vector<dsp::cplx> bins(p.num_bins(), dsp::cplx{0.0, 0.0});
  for (const auto& [bin, a] : amps) bins.at(bin) = {a, 0.0};
  const std::vector<double> sym = ofdm.modulate_with_cp(bins);
  std::vector<double> out;
  for (std::size_t r = 0; r < FeedbackCodec::kRepeats; ++r) {
    out.insert(out.end(), sym.begin(), sym.end());
  }
  return out;
}

template <typename T>
void expect_decoders_match_oracle(const std::vector<double>& capture,
                                  const std::string& what) {
  const OfdmParams p;
  const FeedbackCodec codec(p);
  const oracle::OracleFeedback ref(p);
  dsp::Workspace ws;
  std::vector<T> x(capture.size());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<T>(capture[i]);
  const std::span<const T> in(x);
  for (const std::size_t step : {std::size_t{8}, std::size_t{5}}) {
    for (const double min_frac : {0.3, 0.02}) {
      const std::string at = what + " step " + std::to_string(step) +
                             " min " + std::to_string(min_frac) +
                             (sizeof(T) == 4 ? " float" : " double");
      const auto band = codec.decode_band(in, step, min_frac, ws);
      const auto band_ref = ref.decode_band<T>(in, step, min_frac, ws);
      ASSERT_EQ(band.has_value(), band_ref.has_value()) << at;
      if (band_ref) {
        EXPECT_EQ(band->band.begin_bin, band_ref->band.begin_bin) << at;
        EXPECT_EQ(band->band.end_bin, band_ref->band.end_bin) << at;
        EXPECT_EQ(band->symbol_start, band_ref->symbol_start) << at;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(band->peak_fraction),
                  std::bit_cast<std::uint64_t>(band_ref->peak_fraction))
            << at;
      }
      const auto tone = codec.decode_tone(in, step, min_frac, ws);
      const auto tone_ref = ref.decode_tone<T>(in, step, min_frac, ws);
      ASSERT_EQ(tone.has_value(), tone_ref.has_value()) << at;
      if (tone_ref) {
        EXPECT_EQ(tone->bin, tone_ref->bin) << at;
        EXPECT_EQ(tone->symbol_start, tone_ref->symbol_start) << at;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(tone->peak_fraction),
                  std::bit_cast<std::uint64_t>(tone_ref->peak_fraction))
            << at;
      }
    }
  }
}

void expect_both_precisions_match_oracle(const std::vector<double>& capture,
                                         const std::string& what) {
  expect_decoders_match_oracle<double>(capture, what);
  expect_decoders_match_oracle<float>(capture, what);
}

TEST(FeedbackOracle, NoiseOnly) {
  expect_both_precisions_match_oracle(oracle_capture({}, 12000, 0, 0.05, 71),
                                      "noise");
}

TEST(FeedbackOracle, SingleTone) {
  const OfdmParams p;
  expect_both_precisions_match_oracle(
      oracle_capture(oracle_tones(p, {{28, 1.0}}), 3000, 2500, 0.01, 72),
      "single tone");
}

TEST(FeedbackOracle, TwoTones25DbApart) {
  const OfdmParams p;
  const double weak = std::pow(10.0, -25.0 / 20.0);
  expect_both_precisions_match_oracle(
      oracle_capture(oracle_tones(p, {{12, 1.0}, {40, weak}}), 2800, 3100,
                     0.01, 73),
      "two tones 25 dB apart");
}

TEST(FeedbackOracle, AdjacentBinPair) {
  // A 0.1 amplitude neighbor falls under the adjacent-bin leakage rule
  // (power ratio 0.01 < 0.02); a 0.3 one does not.
  const OfdmParams p;
  for (const double a : {0.1, 0.3}) {
    expect_both_precisions_match_oracle(
        oracle_capture(oracle_tones(p, {{20, 1.0}, {21, a}}), 3000, 3000,
                       0.01, 74),
        "adjacent pair " + std::to_string(a));
  }
}

TEST(FeedbackOracle, EqualPowerTiesBetweenWindows) {
  // Exact ties: at 1e18 the float power rows of the tone bins overflow to
  // +Inf (at 1e158 the double ones do), so every window over the symbol
  // has the same whitened peak sum and the first of them must win, as in
  // the eager decoder. A second copy of the symbol adds near-ties between
  // two separated windows.
  const OfdmParams p;
  const std::vector<double> burst = oracle_tones(p, {{10, 1.0}, {50, 1.0}});
  for (const double scale : {1e18, 1e158}) {
    std::vector<double> x = oracle_capture(burst, 3000, 3000, 0.01, 75);
    for (double& v : x) v *= scale;
    expect_both_precisions_match_oracle(x, "overflow " + std::to_string(scale));
  }
  std::vector<double> twice = burst;
  twice.resize(twice.size() + 1500, 0.0);
  twice.insert(twice.end(), burst.begin(), burst.end());
  expect_both_precisions_match_oracle(
      oracle_capture(twice, 2000, 2000, 0.0, 75), "repeated symbol");
}

TEST(FeedbackOracle, NanAndInfBearingCapture) {
  const OfdmParams p;
  std::vector<double> x =
      oracle_capture(oracle_tones(p, {{33, 1.0}}), 4000, 3000, 0.02, 76);
  x[1500] = std::numeric_limits<double>::quiet_NaN();
  x[x.size() - 700] = std::numeric_limits<double>::infinity();
  expect_both_precisions_match_oracle(x, "nan/inf");
}

TEST(Equalizer, ShortensAnIsiChannel) {
  // Two-tap channel: 1 + 0.5 z^-150 (echo beyond the 67-sample CP). The
  // inverse series (-0.5)^k z^{-150k} fits inside 480 taps, so the
  // equalizer concentrates the effective response back near a delta.
  std::mt19937_64 rng(8);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> tx(2000);
  for (auto& v : tx) v = g(rng);
  std::vector<double> h(151, 0.0);
  h[0] = 1.0;
  h[150] = 0.5;
  std::vector<double> rx = dsp::convolve(tx, h);
  rx.resize(tx.size());
  MmseEqualizer eq = MmseEqualizer::train(rx, tx, 480, 0, 1e-4);
  const std::vector<double> restored = eq.apply(rx);
  // Residual error over the central region, compared to no equalization.
  double err = 0.0, sig = 0.0, raw_err = 0.0;
  for (std::size_t i = 500; i < 1500; ++i) {
    err += (restored[i] - tx[i]) * (restored[i] - tx[i]);
    raw_err += (rx[i] - tx[i]) * (rx[i] - tx[i]);
    sig += tx[i] * tx[i];
  }
  EXPECT_LT(err / sig, 0.05);
  EXPECT_LT(err, 0.25 * raw_err);
}

TEST(Equalizer, IdentityPassesThrough) {
  MmseEqualizer eq = MmseEqualizer::identity();
  std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_EQ(eq.apply(x), x);
}

TEST(Equalizer, RejectsDegenerateTraining) {
  std::vector<double> silent(1000, 0.0);
  std::vector<double> tx(1000, 1.0);
  EXPECT_THROW(MmseEqualizer::train(silent, tx, 480, 240),
               std::invalid_argument);
  EXPECT_THROW(MmseEqualizer::train(tx, tx, 0, 0), std::invalid_argument);
  std::vector<double> tiny(10, 1.0);
  EXPECT_THROW(MmseEqualizer::train(tiny, tiny, 480, 240),
               std::invalid_argument);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Training and apply against the per-output reference loops: 60 random
// cases over tap counts off and on the 4-output/4-lag block (1, 2, 3, 5,
// 7, 8, 9, 31 and the paper's 480), delays from 0 to past the signal end,
// and inputs with signed zeros, so every edge, interior block and tail
// runs. The production solve must also match the reference Levinson.
TEST(EqualizerOracle, TrainAndApplyMatchReferenceBitForBit) {
  std::mt19937_64 rng(61);
  std::normal_distribution<double> g(0.0, 1.0);
  const std::size_t tap_counts[] = {1, 2, 3, 5, 7, 8, 9, 31, 480};
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t taps = tap_counts[trial % 9];
    const std::size_t len = taps + 1 + static_cast<std::size_t>(rng() % 1500);
    const std::size_t delays[] = {0, taps / 2, taps - 1, taps + 3, len + 5};
    const std::size_t delay = delays[trial % 5];
    std::vector<double> tx(len), rx(len);
    for (double& v : tx) v = g(rng);
    for (std::size_t i = 0; i < len; ++i) {
      rx[i] = (i % 13 == 4) ? -0.0 : tx[i] + 0.3 * g(rng);
    }
    const std::string where = "trial " + std::to_string(trial) + " taps " +
                              std::to_string(taps) + " delay " +
                              std::to_string(delay) + " len " +
                              std::to_string(len);
    const oracle::Normal ne =
        oracle::normal_equations(rx, tx, taps, delay, 1e-3);
    const std::vector<double> want_taps = oracle::levinson_solve(ne.r, ne.c);
    ASSERT_TRUE(same_bits(dsp::levinson_solve(ne.r, ne.c), want_taps))
        << where;
    const MmseEqualizer eq = MmseEqualizer::train(rx, tx, taps, delay, 1e-3);
    ASSERT_TRUE(same_bits(eq.taps(), want_taps)) << where;
    // Apply over captures shorter and longer than the taps.
    std::vector<double> x(1 + static_cast<std::size_t>(rng() % 2000));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = (i % 17 == 2) ? -0.0 : g(rng);
    }
    ASSERT_TRUE(same_bits(eq.apply(x), oracle::equalizer_apply(want_taps, delay, x)))
        << where << " apply over " << x.size();
  }
}

}  // namespace
}  // namespace aqua::phy
