// End-to-end execution of the post-preamble feedback protocol over a
// simulated acoustic link (section 2.2, Fig. 5).
//
// One send_packet() call plays out the full sequence:
//   Alice: preamble + receiver-ID symbol        (forward channel)
//   Bob:   detect, check ID, estimate per-bin SNR, run Algorithm 1
//   Bob:   two-tone feedback symbol             (backward channel)
//   Alice: sliding-FFT feedback decode, encode data in the band
//   Alice: training symbol + data symbols       (forward channel)
//   Bob:   locate training, equalize, decode, ACK on success
// and returns a full trace (band, bitrate, errors) that the benches
// aggregate into the paper's figures.
//
// send_packet() runs the exchange the way the app runs it: two duplex
// core::Modem endpoints clocked block by block through a full-duplex
// channel::AcousticMedium, every sample flowing through the streaming
// receive front end. send_packet_oracle() keeps the original
// capture-splicing reference path (each phase transmitted and decoded in
// isolation with oracle timing); the equivalence tests compare the two.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "channel/channel.h"
#include "channel/medium.h"
#include "core/modem.h"
#include "dsp/workspace.h"
#include "phy/bandselect.h"
#include "phy/datamodem.h"
#include "phy/feedback.h"
#include "phy/preamble.h"

namespace aqua::core {

/// Configuration of a protocol session between two devices.
struct SessionConfig {
  phy::OfdmParams params;
  channel::LinkConfig forward;      ///< Alice -> Bob link
  /// Node IDs are active-bin indices (section 2.3: 60 subcarriers => up to
  /// 60 users). Defaults sit mid-band where every device's response is
  /// strong; low bins (near 1 kHz) are the noisiest corner of the band.
  std::uint8_t alice_id = 28;
  std::uint8_t bob_id = 32;
  /// Overrides adaptation with a fixed band (the paper's fixed-bandwidth
  /// baselines: 1-4 kHz, 1-2.5 kHz, 1-1.5 kHz).
  std::optional<phy::BandSelection> fixed_band;
  phy::DecodeOptions decode;
  bool send_ack = true;
  /// Block size (samples) at which the duplex endpoints are clocked
  /// through the shared medium. Results are bit-identical for any value:
  /// every decision in the pipeline lives on the absolute sample grid.
  std::size_t medium_block_samples = 480;
  /// Shared-medium scaling knobs (worker pool, audibility culling). The
  /// defaults keep a two-endpoint session on one worker with no culling;
  /// results are bit-identical for any worker count either way.
  channel::MediumConfig medium;
};

/// Everything observable about one packet exchange.
struct PacketTrace {
  bool preamble_detected = false;
  bool id_matched = false;
  bool feedback_decoded = false;
  bool data_found = false;
  bool packet_ok = false;           ///< every info bit correct
  bool ack_received = false;
  phy::BandSelection band_selected; ///< Bob's Algorithm-1 output
  phy::BandSelection band_used;     ///< what Alice decoded from feedback
  bool feedback_exact = false;      ///< band_used == band_selected
  double selected_bitrate_bps = 0.0;
  std::vector<double> snr_db;       ///< Bob's per-bin SNR estimate
  std::size_t info_bits = 0;
  std::size_t info_bit_errors = 0;
  std::size_t coded_bits = 0;
  std::size_t coded_bit_errors = 0; ///< pre-Viterbi (uncoded) errors
  double preamble_metric = 0.0;
  std::vector<std::uint8_t> decoded_bits;  ///< Bob's decoded payload
  /// Session-QoE message latency on the shared sample timeline: Bob's
  /// decode position minus the medium clock at the send() call. Sample
  /// counts, so deterministic; divide by the sample rate for seconds.
  /// Valid only when `latency_valid` (the packet decoded).
  std::uint64_t latency_samples = 0;
  bool latency_valid = false;
  /// Transmit-machine kTxFailed events during the exchange (feedback never
  /// arrived) — the sweep's retransmission-pressure counter.
  std::size_t tx_failures = 0;
  /// Microphone samples pushed through the receive DSP chains for this
  /// packet (both endpoints on the streaming path; the four spliced
  /// captures on the oracle path) — the benches' samples/s metric.
  std::size_t samples_processed = 0;
};

/// Runs the protocol over a forward/backward channel pair.
class LinkSession {
 public:
  /// All DSP scratch (channels, detection, decode, both endpoints) leases
  /// from `ws`, which must outlive the session. A sweep worker passes its
  /// own arena so back-to-back sessions reuse the same buffers. The default
  /// binds the constructing thread's arena, so such a session must stay on
  /// that thread.
  explicit LinkSession(const SessionConfig& config,
                       dsp::Workspace& ws = dsp::thread_local_workspace());

  /// Executes one full packet exchange carrying `info_bits` (0/1 values)
  /// over the streaming duplex pipeline: two Modems on one AcousticMedium,
  /// a continuous shared sample clock, every mic sample through the
  /// overlap-save front end exactly once. The medium and both endpoints
  /// persist across calls, so back-to-back packets ride one evolving
  /// timeline (mobility keeps drifting, scanners keep their state).
  PacketTrace send_packet(std::span<const std::uint8_t> info_bits);

  /// Reference implementation: each phase transmitted through the packet
  /// channels and decoded from its own spliced capture with oracle timing.
  /// Kept for the streaming-equivalence tests in test_modem.
  PacketTrace send_packet_oracle(std::span<const std::uint8_t> info_bits);

  /// The per-bin SNR Bob would estimate right now (sends a lone preamble).
  /// Used by the Fig. 16 channel-stability experiment.
  std::vector<double> probe_snr();

  const SessionConfig& config() const { return config_; }
  /// The packet-mode channels of send_packet_oracle() and probe_snr(),
  /// built on first use: the streaming send_packet() never touches them.
  channel::UnderwaterChannel& forward_channel();
  channel::UnderwaterChannel& backward_channel();

  /// Attaches a capture sink to the streaming pipeline: Alice records as
  /// endpoint 0, Bob as endpoint 1, and the medium reports both mixed mic
  /// streams. Attach before the first send_packet() for a replayable
  /// trace; nullptr detaches. The sink must outlive the session.
  void set_trace_sink(obs::TraceSink* sink);
  /// Attaches a metrics registry for the endpoints' DSP stage timers.
  void set_metrics(obs::Registry* metrics);

 private:
  void ensure_duplex();

  SessionConfig config_;
  dsp::Workspace& ws_;                ///< borrowed DSP scratch arena
  obs::TraceSink* sink_ = nullptr;    ///< borrowed; forwarded on build
  obs::Registry* metrics_ = nullptr;  ///< borrowed; forwarded on build
  std::optional<channel::UnderwaterChannel> forward_;   ///< see forward_channel()
  std::optional<channel::UnderwaterChannel> backward_;  ///< see backward_channel()
  phy::Preamble preamble_;
  phy::FeedbackCodec feedback_;
  phy::DataModem modem_;
  phy::Ofdm ofdm_;

  // Streaming path (built on first send_packet call): the shared medium
  // and the two duplex endpoints.
  std::unique_ptr<channel::AcousticMedium> medium_;
  std::unique_ptr<Modem> alice_;
  std::unique_ptr<Modem> bob_;
};

}  // namespace aqua::core
