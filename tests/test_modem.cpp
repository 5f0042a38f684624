// Streaming front end and duplex pipeline invariants:
//   * PreambleScanner matches the batch detector and is chunk-invariant;
//   * Modem::push emits byte-identical event sequences for any chunking
//     of the same microphone timeline (1 / 160 / 4800 samples);
//   * the Modem-backed LinkSession is bit-identical for any medium block
//     size and reproduces the oracle path's aggregates;
//   * N modems attached to one AcousticMedium run the protocol as a
//     network (mac::ModemNetwork).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <sstream>

#include "channel/channel.h"
#include "core/link_session.h"
#include "core/modem.h"
#include "mac/netsim.h"
#include "phy/datamodem.h"
#include "phy/feedback.h"
#include "phy/preamble.h"
#include "sim/sweep.h"

namespace aqua {
namespace {

// Bit-exact fingerprint of an event sequence: every field, doubles as raw
// bit patterns. Two sequences compare equal only if byte-identical.
std::string fingerprint(const std::vector<core::ModemEvent>& events) {
  std::ostringstream os;
  const auto raw = [&](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    os << std::hex << u << ',';
  };
  for (const core::ModemEvent& e : events) {
    os << static_cast<int>(e.type) << '@' << e.stream_pos << ':';
    raw(e.preamble_metric);
    raw(e.training_metric);
    os << '[' << e.band.begin_bin << ',' << e.band.end_bin << ']';
    for (double v : e.snr_db) raw(v);
    for (std::uint8_t b : e.payload_bits) os << static_cast<int>(b);
    for (std::uint8_t b : e.coded_hard) os << static_cast<int>(b);
    os << (e.ack_received ? 'A' : 'a') << ';';
  }
  return os.str();
}

// One phase-1 capture (preamble + Bob's ID) with generous trailing noise.
std::vector<double> phase1_capture(channel::UnderwaterChannel& ch,
                                   const phy::OfdmParams& params,
                                   std::uint8_t dest_id, double tail_s) {
  phy::Preamble preamble(params);
  phy::FeedbackCodec codec(params);
  std::vector<double> wave = preamble.waveform();
  const std::vector<double> id = codec.encode_tone(dest_id);
  wave.insert(wave.end(), id.begin(), id.end());
  dsp::Workspace ws;
  return ch.transmit(wave, ws, 0.05, tail_s);
}

TEST(PreambleScanner, MatchesBatchDetectorOnOneCapture) {
  const phy::OfdmParams params;
  phy::Preamble preamble(params);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kLake);
  lc.range_m = 10.0;
  lc.seed = 77;
  channel::UnderwaterChannel ch(lc);
  const std::vector<double> rx = phase1_capture(ch, params, 32, 0.6);

  dsp::Workspace ws;
  const auto batch = preamble.detect(rx, ws);
  ASSERT_TRUE(batch.has_value());

  phy::PreambleScanner scanner(preamble);
  std::vector<phy::PreambleDetection> dets;
  for (std::size_t base = 0; base < rx.size(); base += 997) {
    const std::size_t len = std::min<std::size_t>(997, rx.size() - base);
    scanner.scan(std::span<const double>(rx).subspan(base, len), dets, ws);
  }
  ASSERT_EQ(dets.size(), 1u);
  // Same bandpass, same correlation template, same confirmation pass on
  // the same absolute grid: the scanner lands on the batch answer.
  EXPECT_EQ(dets[0].start_index, batch->start_index);
  EXPECT_DOUBLE_EQ(dets[0].sliding_metric, batch->sliding_metric);
}

TEST(PreambleScanner, ChunkInvariantBitExact) {
  const phy::OfdmParams params;
  phy::Preamble preamble(params);
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 55;
  channel::UnderwaterChannel ch(lc);
  const std::vector<double> rx = phase1_capture(ch, params, 32, 0.6);

  dsp::Workspace ws;
  const auto run = [&](std::size_t chunk) {
    phy::PreambleScanner scanner(preamble);
    std::vector<phy::PreambleDetection> dets;
    for (std::size_t base = 0; base < rx.size(); base += chunk) {
      const std::size_t len = std::min(chunk, rx.size() - base);
      scanner.scan(std::span<const double>(rx).subspan(base, len), dets, ws);
    }
    return dets;
  };
  const auto d1 = run(1);
  const auto d160 = run(160);
  const auto d4800 = run(4800);
  ASSERT_EQ(d1.size(), 1u);
  ASSERT_EQ(d160.size(), d1.size());
  ASSERT_EQ(d4800.size(), d1.size());
  EXPECT_EQ(d1[0].start_index, d160[0].start_index);
  EXPECT_EQ(d1[0].start_index, d4800[0].start_index);
  // Bit-exact, not just close: same absolute FFT blocks, same energy
  // recurrence, same confirmation arithmetic.
  EXPECT_EQ(d1[0].sliding_metric, d160[0].sliding_metric);
  EXPECT_EQ(d1[0].sliding_metric, d4800[0].sliding_metric);
}

TEST(Modem, PushGranularityInvariance) {
  // One continuous microphone timeline containing a full receive-side
  // exchange: phase 1, a feedback-round-trip gap, then the data portion in
  // the band the receiver will have selected.
  const phy::OfdmParams params;
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 55;
  channel::UnderwaterChannel fwd(lc);
  std::vector<double> timeline = phase1_capture(fwd, params, 32, 0.45);

  core::ModemConfig mc;
  mc.my_id = 32;
  core::Modem probe(mc);
  phy::BandSelection band;
  bool addressed = false;
  for (const core::ModemEvent& e : probe.push(timeline)) {
    if (e.type == core::ModemEvent::Type::kAddressedToUs) {
      band = e.band;
      addressed = true;
    }
  }
  ASSERT_TRUE(addressed);

  std::mt19937_64 rng(9);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 1);
  {
    const std::vector<double> gap = fwd.ambient(30000);
    timeline.insert(timeline.end(), gap.begin(), gap.end());
    phy::DataModem modem(params);
    dsp::Workspace ws;
    const std::vector<double> rx3 =
        fwd.transmit(modem.encode(payload, band), ws, 0.05, 1.0);
    timeline.insert(timeline.end(), rx3.begin(), rx3.end());
  }

  const auto run = [&](std::size_t chunk) {
    core::Modem m(mc);
    std::vector<core::ModemEvent> events;
    for (std::size_t base = 0; base < timeline.size(); base += chunk) {
      const std::size_t len = std::min(chunk, timeline.size() - base);
      for (auto& e :
           m.push(std::span<const double>(timeline).subspan(base, len))) {
        events.push_back(std::move(e));
      }
    }
    return events;
  };
  const std::vector<core::ModemEvent> e1 = run(1);
  const std::vector<core::ModemEvent> e160 = run(160);
  const std::vector<core::ModemEvent> e4800 = run(4800);

  // The exchange actually happened...
  bool decoded = false;
  for (const core::ModemEvent& e : e160) {
    if (e.type == core::ModemEvent::Type::kPacketDecoded) {
      decoded = true;
      EXPECT_EQ(e.payload_bits, payload);
    }
  }
  EXPECT_TRUE(decoded);
  // ...and every chunking tells the byte-identical story.
  const std::string f = fingerprint(e160);
  EXPECT_EQ(fingerprint(e1), f);
  EXPECT_EQ(fingerprint(e4800), f);
}

TEST(Modem, ResponderWaveformsAnchoredToTheTimeline) {
  // A responder's speaker output (here: Bob's feedback symbol) must start
  // at an absolute position on the shared clock, not wherever the
  // clocking block happened to land — this is what makes full exchanges
  // invariant to the block size endpoints are driven at.
  const phy::OfdmParams params;
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 5.0;
  lc.seed = 55;
  channel::UnderwaterChannel fwd(lc);
  const std::vector<double> timeline = phase1_capture(fwd, params, 32, 0.9);

  core::ModemConfig mc;
  mc.my_id = 32;
  const auto run = [&](std::size_t block) {
    core::Modem bob(mc);
    std::vector<double> speaker;
    std::vector<double> chunk(block);
    for (std::size_t base = 0; base < timeline.size(); base += block) {
      const std::size_t len = std::min(block, timeline.size() - base);
      bob.push(std::span<const double>(timeline).subspan(base, len));
      chunk.resize(len);
      bob.pull_tx(std::span<double>(chunk));
      speaker.insert(speaker.end(), chunk.begin(), chunk.end());
    }
    return speaker;
  };
  const std::vector<double> s480 = run(480);
  const std::vector<double> s960 = run(960);
  const std::vector<double> s4800 = run(4800);
  // The feedback actually went out...
  double energy = 0.0;
  for (double v : s480) energy += v * v;
  ASSERT_GT(energy, 0.0);
  // ...and sits at the same absolute samples regardless of block size.
  EXPECT_EQ(s480, s960);
  EXPECT_EQ(s480, s4800);
}

core::PacketTrace run_session_packet(std::size_t medium_block) {
  core::SessionConfig cfg;
  cfg.forward.site = channel::site_preset(channel::Site::kLake);
  cfg.forward.range_m = 5.0;
  cfg.forward.seed = 77;
  cfg.medium_block_samples = medium_block;
  core::LinkSession session(cfg);
  std::mt19937_64 rng(5);
  std::vector<std::uint8_t> bits(16);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return session.send_packet(bits);
}

TEST(Modem, LinkSessionInvariantToMediumBlockSize) {
  const core::PacketTrace a = run_session_packet(160);
  const core::PacketTrace b = run_session_packet(480);
  const core::PacketTrace c = run_session_packet(960);
  for (const core::PacketTrace* t : {&b, &c}) {
    EXPECT_EQ(a.preamble_detected, t->preamble_detected);
    EXPECT_EQ(a.id_matched, t->id_matched);
    EXPECT_EQ(a.feedback_decoded, t->feedback_decoded);
    EXPECT_EQ(a.feedback_exact, t->feedback_exact);
    EXPECT_EQ(a.band_selected.begin_bin, t->band_selected.begin_bin);
    EXPECT_EQ(a.band_selected.end_bin, t->band_selected.end_bin);
    EXPECT_EQ(a.packet_ok, t->packet_ok);
    EXPECT_EQ(a.decoded_bits, t->decoded_bits);
    // Bit-exact DSP along the whole pipeline, not merely same decisions.
    EXPECT_EQ(a.preamble_metric, t->preamble_metric);
  }
  EXPECT_TRUE(a.preamble_detected);
  EXPECT_TRUE(a.packet_ok);
}

TEST(Modem, LinkSessionMatchesOracleAggregates) {
  // The streaming pipeline must land where the oracle path lands on the
  // default-grid workload: same delivery behavior within noise (different
  // noise realizations, same physics and protocol).
  core::SessionConfig cfg;
  cfg.forward.site = channel::site_preset(channel::Site::kBridge);
  cfg.forward.range_m = 5.0;

  const int n = 6;
  int delivered_stream = 0, delivered_oracle = 0;
  int exact_stream = 0, exact_oracle = 0;
  double bps_stream = 0.0, bps_oracle = 0.0;
  for (int i = 0; i < n; ++i) {
    core::SessionConfig c = cfg;
    c.forward.seed = 9000 + static_cast<std::uint64_t>(i) * 131;
    std::mt19937_64 rng(77 + static_cast<std::uint64_t>(i));
    std::vector<std::uint8_t> bits(16);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);

    core::LinkSession streaming(c);
    const core::PacketTrace ts = streaming.send_packet(bits);
    core::LinkSession oracle(c);
    const core::PacketTrace to = oracle.send_packet_oracle(bits);

    delivered_stream += ts.packet_ok;
    delivered_oracle += to.packet_ok;
    exact_stream += ts.feedback_exact;
    exact_oracle += to.feedback_exact;
    bps_stream += ts.selected_bitrate_bps;
    bps_oracle += to.selected_bitrate_bps;
  }
  EXPECT_NEAR(delivered_stream, delivered_oracle, 2);
  EXPECT_NEAR(exact_stream, exact_oracle, 2);
  ASSERT_GT(delivered_oracle, 0);
  ASSERT_GT(delivered_stream, 0);
  // Mean selected bitrate within 30% — band adaptation sees different
  // noise realizations but the same channel response.
  EXPECT_NEAR(bps_stream / bps_oracle, 1.0, 0.3);
}

TEST(ModemNetwork, ThreeNodesOnOneMedium) {
  mac::ModemNetworkConfig cfg;
  cfg.nodes = 3;
  cfg.site = channel::Site::kBridge;
  cfg.spacing_m = 5.0;
  cfg.seed = 11;
  mac::ModemNetwork net(cfg);

  std::mt19937_64 rng(3);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 1);
  net.send(0, payload, 1);
  const auto events = net.run(3.5);

  // Node 1 (the destination) decodes the payload.
  bool decoded = false;
  for (const core::ModemEvent& e : events[1]) {
    if (e.type == core::ModemEvent::Type::kPacketDecoded) {
      decoded = true;
      EXPECT_EQ(e.payload_bits, payload);
    }
  }
  EXPECT_TRUE(decoded);
  // Node 2 overhears the preamble as real audio but is never addressed.
  bool overheard = false;
  for (const core::ModemEvent& e : events[2]) {
    if (e.type == core::ModemEvent::Type::kPreambleDetected) overheard = true;
    EXPECT_NE(e.type, core::ModemEvent::Type::kAddressedToUs);
  }
  EXPECT_TRUE(overheard);
  // Node 0 completes its exchange with the ACK.
  bool complete = false;
  for (const core::ModemEvent& e : events[0]) {
    if (e.type == core::ModemEvent::Type::kTxComplete) {
      complete = true;
      EXPECT_TRUE(e.ack_received);
    }
  }
  EXPECT_TRUE(complete);
}

TEST(ModemNetwork, SingleWorkerNodesLeaseFromTheMediumArena) {
  // One arena rule: at every worker count node i leases from the medium
  // pool's arena i % workers, so with one worker the nodes' float receive
  // front ends leave their recycled buffers in worker 0's arena.
  mac::ModemNetworkConfig cfg;
  cfg.nodes = 2;
  cfg.medium_workers = 1;
  cfg.seed = 5;
  mac::ModemNetwork net(cfg);
  ASSERT_EQ(net.medium().workers(), 1);
  EXPECT_EQ(net.medium().pool().workspace(0).pooled_realf(), 0u);
  net.run(0.1);
  EXPECT_GT(net.medium().pool().workspace(0).pooled_realf(), 0u);
}

TEST(Modem, SweepAggregatesThreadCountInvariantOnStreamingPath) {
  // run_packet_range feeds the Modem-backed send_packet; chunked execution
  // with per-worker arenas must merge to identical aggregates.
  core::SessionConfig base;
  base.forward.site = channel::site_preset(channel::Site::kBridge);
  base.forward.range_m = 5.0;

  // The serial pass leases from an arena a prior run already warmed; the
  // split passes start from fresh ones.
  dsp::Workspace warm;
  sim::run_packet_range(base, 4, 5, 4242, 16, warm);
  const sim::BatchStats serial =
      sim::run_packet_range(base, 0, 4, 4242, 16, warm);
  dsp::Workspace w1, w2;
  sim::BatchStats split = sim::run_packet_range(base, 0, 2, 4242, 16, w1);
  split.merge(sim::run_packet_range(base, 2, 4, 4242, 16, w2));

  EXPECT_EQ(serial.sent, split.sent);
  EXPECT_EQ(serial.delivered, split.delivered);
  EXPECT_EQ(serial.feedback_exact, split.feedback_exact);
  EXPECT_EQ(serial.coded_errors, split.coded_errors);
  EXPECT_EQ(serial.samples, split.samples);
  ASSERT_EQ(serial.bitrates.size(), split.bitrates.size());
  for (std::size_t i = 0; i < serial.bitrates.size(); ++i) {
    EXPECT_EQ(serial.bitrates[i], split.bitrates[i]);
  }
}

}  // namespace
}  // namespace aqua
