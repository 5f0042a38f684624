#include "core/link_session.h"

#include <algorithm>
#include <stdexcept>

#include "phy/chanest.h"

namespace aqua::core {

LinkSession::LinkSession(const SessionConfig& config, dsp::Workspace& ws)
    : config_(config),
      ws_(ws),
      preamble_(config.params),
      feedback_(config.params),
      modem_(config.params),
      ofdm_(config.params) {
  // The packet channels are built lazily; reject what their constructor
  // would have rejected up front.
  if (config_.forward.range_m <= 0.0) {
    throw std::invalid_argument("LinkSession: range must be > 0");
  }
}

channel::UnderwaterChannel& LinkSession::forward_channel() {
  if (!forward_) forward_.emplace(config_.forward);
  return *forward_;
}

channel::UnderwaterChannel& LinkSession::backward_channel() {
  if (!backward_) backward_.emplace(channel::reverse_link(config_.forward));
  return *backward_;
}

std::vector<double> LinkSession::probe_snr() {
  const std::vector<double>& wave = preamble_.waveform();
  std::vector<double> rx = forward_channel().transmit(wave, ws_);
  auto det = preamble_.detect(rx, ws_);
  if (!det) return {};
  if (det->start_index + preamble_.core_samples() > rx.size()) return {};
  phy::ChannelEstimate est = phy::estimate_channel(
      ofdm_, std::span<const double>(rx).subspan(det->start_index),
      preamble_.cazac_bins(), ws_);
  return est.snr_db;
}

PacketTrace LinkSession::send_packet_oracle(
    std::span<const std::uint8_t> info_bits) {
  PacketTrace trace;
  trace.info_bits = info_bits.size();

  // ---- Phase 1: Alice sends preamble + receiver-ID symbol. ----
  std::vector<double> phase1 = preamble_.waveform();
  {
    std::vector<double> id_sym = feedback_.encode_tone(config_.bob_id);
    phase1.insert(phase1.end(), id_sym.begin(), id_sym.end());
  }
  std::vector<double> rx1 = forward_channel().transmit(phase1, ws_);
  trace.samples_processed += rx1.size();

  // ---- Phase 2: Bob detects the preamble and checks the ID. ----
  auto det = preamble_.detect(rx1, ws_);
  if (!det) return trace;
  trace.preamble_detected = true;
  trace.preamble_metric = det->sliding_metric;

  const std::size_t preamble_end = det->start_index + preamble_.core_samples();
  if (preamble_end >= rx1.size()) return trace;
  // The ID symbol follows the preamble. Hand the decoder everything from
  // the end of the preamble onward: the trailing silence gives it clean
  // noise-estimation windows.
  {
    auto id = feedback_.decode_tone(
        std::span<const double>(rx1).subspan(preamble_end), /*step=*/8,
        /*min_peak_fraction=*/0.3, ws_);
    if (!id || id->bin != config_.bob_id) return trace;
    trace.id_matched = true;
  }

  // ---- Phase 3: Bob estimates SNR and runs Algorithm 1. ----
  phy::ChannelEstimate est = phy::estimate_channel(
      ofdm_, std::span<const double>(rx1).subspan(det->start_index),
      preamble_.cazac_bins(), ws_);
  trace.snr_db = est.snr_db;
  trace.band_selected =
      config_.fixed_band
          ? *config_.fixed_band
          : phy::select_band(est.snr_db, config_.params.snr_threshold_db,
                             config_.params.lambda);

  // ---- Phase 4: Bob sends the two-tone feedback; Alice decodes it. ----
  if (config_.fixed_band) {
    // Fixed-bandwidth baselines skip the adaptation exchange entirely.
    trace.band_used = *config_.fixed_band;
    trace.feedback_decoded = true;
    trace.feedback_exact = true;
  } else {
    std::vector<double> fb = feedback_.encode_band(trace.band_selected);
    std::vector<double> rx2 = backward_channel().transmit(fb, ws_);
    trace.samples_processed += rx2.size();
    auto dec = feedback_.decode_band(rx2, /*step=*/8,
                                     /*min_peak_fraction=*/0.3, ws_);
    if (!dec) return trace;
    trace.feedback_decoded = true;
    trace.band_used = dec->band;
    trace.feedback_exact =
        dec->band.begin_bin == trace.band_selected.begin_bin &&
        dec->band.end_bin == trace.band_selected.end_bin;
  }
  trace.selected_bitrate_bps =
      config_.params.reported_bitrate_bps(trace.band_used.width());

  // ---- Phase 5: Alice sends the data; Bob decodes it. ----
  // Alice transmits in the band she decoded from the feedback; Bob decodes
  // in the band he actually selected. A feedback decoding error therefore
  // costs a packet, exactly as in the real protocol.
  std::vector<double> data =
      modem_.encode(info_bits, trace.band_used, config_.decode.use_differential);
  std::vector<double> rx3 = forward_channel().transmit(data, ws_);
  trace.samples_processed += rx3.size();

  phy::DecodeOptions opts = config_.decode;
  const std::size_t rows =
      modem_.data_symbol_count(info_bits.size(), trace.band_selected.width());
  const std::size_t region =
      (rows + 1) * config_.params.symbol_total_samples();
  opts.search_window = rx3.size() > region ? rx3.size() - region : 0;
  phy::DataDecodeResult res =
      modem_.decode(rx3, trace.band_selected, info_bits.size(), opts,
                    ws_);
  if (!res.found) return trace;
  trace.data_found = true;
  trace.coded_bits = res.coded_hard.size();

  // Compare against the transmitted coded bits for the uncoded-BER metric.
  {
    coding::ConvolutionalCodec codec(coding::CodeRate::kRate2_3);
    std::vector<std::uint8_t> coded_tx = codec.encode(info_bits);
    for (std::size_t i = 0; i < res.coded_hard.size() && i < coded_tx.size();
         ++i) {
      if (res.coded_hard[i] != coded_tx[i]) trace.coded_bit_errors++;
    }
  }
  for (std::size_t i = 0; i < res.info_bits.size(); ++i) {
    if ((res.info_bits[i] & 1) != (info_bits[i] & 1)) trace.info_bit_errors++;
  }
  trace.decoded_bits = res.info_bits;
  trace.packet_ok = trace.info_bit_errors == 0;

  // ---- Phase 6: Bob ACKs a correct packet on the 1 kHz bin. ----
  if (config_.send_ack && trace.packet_ok) {
    std::vector<double> ack = feedback_.encode_tone(phy::FeedbackCodec::kAckBin);
    std::vector<double> rx4 = backward_channel().transmit(ack, ws_);
    trace.samples_processed += rx4.size();
    auto got = feedback_.decode_tone(rx4, /*step=*/8,
                                     /*min_peak_fraction=*/0.3, ws_);
    trace.ack_received = got && got->bin == phy::FeedbackCodec::kAckBin;
  }
  return trace;
}

void LinkSession::set_trace_sink(obs::TraceSink* sink) {
  sink_ = sink;
  if (medium_) {
    medium_->set_trace_sink(sink_);
    alice_->set_trace_sink(sink_, 0);
    bob_->set_trace_sink(sink_, 1);
  }
}

void LinkSession::set_metrics(obs::Registry* metrics) {
  metrics_ = metrics;
  if (medium_) {
    alice_->set_metrics(metrics_);
    bob_->set_metrics(metrics_);
  }
}

void LinkSession::ensure_duplex() {
  if (medium_) return;
  // lint: alloc-ok(session construction, before any streaming)
  medium_ = std::make_unique<channel::AcousticMedium>(
      config_.forward.sample_rate_hz, config_.medium);
  channel::add_duplex_link(*medium_, config_.forward);

  ModemConfig mc;
  mc.params = config_.params;
  mc.send_ack = config_.send_ack;
  mc.fixed_band = config_.fixed_band;
  mc.decode = config_.decode;

  ModemConfig alice_cfg = mc;
  alice_cfg.my_id = config_.alice_id;
  ModemConfig bob_cfg = mc;
  bob_cfg.my_id = config_.bob_id;
  alice_ = std::make_unique<Modem>(alice_cfg, ws_);  // lint: alloc-ok(session construction, before any streaming)
  bob_ = std::make_unique<Modem>(bob_cfg, ws_);  // lint: alloc-ok(session construction, before any streaming)
  if (sink_) {
    medium_->set_trace_sink(sink_);
    alice_->set_trace_sink(sink_, 0);
    bob_->set_trace_sink(sink_, 1);
  }
  if (metrics_) {
    alice_->set_metrics(metrics_);
    bob_->set_metrics(metrics_);
  }
}

PacketTrace LinkSession::send_packet(std::span<const std::uint8_t> info_bits) {
  ensure_duplex();
  PacketTrace trace;
  trace.info_bits = info_bits.size();

  // The payload size feeds Bob's data-deadline arithmetic.
  alice_->set_payload_bits(info_bits.size());
  bob_->set_payload_bits(info_bits.size());

  // QoE latency anchor: both endpoints and the medium share one sample
  // timeline, so (Bob's decode position - the clock at send) is an exact,
  // deterministic message latency.
  const std::uint64_t send_clock = medium_->clock();
  alice_->send(info_bits, config_.bob_id);

  const std::size_t block = std::max<std::size_t>(config_.medium_block_samples, 1);
  const double fs = config_.forward.sample_rate_hz;
  // Hard cap well beyond a full exchange (phase 1 + feedback + data + ACK
  // listen windows come to ~2 s of audio).
  const std::uint64_t cap =
      medium_->clock() + static_cast<std::uint64_t>(10.0 * fs);

  // lint: alloc-ok(per-exchange block buffers: one setup per packet, amortized over ~2 s of simulated audio)
  std::vector<double> tx_a(block), tx_b(block);
  // lint: alloc-ok(per-exchange block buffers)
  std::vector<std::span<const double>> tx_spans{std::span<const double>(tx_a),
                                                std::span<const double>(tx_b)};
  // lint: alloc-ok(per-exchange block buffers)
  std::vector<std::vector<double>> rx;
  // lint: alloc-ok(default-constructed; holds the exchange's rare protocol events)
  std::vector<ModemEvent> ev;
  bool alice_done = false;
  while (medium_->clock() < cap) {
    alice_->pull_tx(std::span<double>(tx_a));
    bob_->pull_tx(std::span<double>(tx_b));
    medium_->step(tx_spans, rx, ws_);
    trace.samples_processed += 2 * block;

    ev = alice_->push(rx[0]);
    for (const ModemEvent& e : ev) {
      switch (e.type) {
        case ModemEvent::Type::kTxFeedbackReceived:
          trace.feedback_decoded = true;
          trace.band_used = e.band;
          break;
        case ModemEvent::Type::kTxComplete:
          trace.ack_received = e.ack_received;
          alice_done = true;
          break;
        case ModemEvent::Type::kTxFailed:
          trace.tx_failures++;
          alice_done = true;
          break;
        default:
          break;
      }
    }
    ev = bob_->push(rx[1]);
    for (ModemEvent& e : ev) {
      switch (e.type) {
        case ModemEvent::Type::kPreambleDetected:
          trace.preamble_detected = true;
          trace.preamble_metric = e.preamble_metric;
          break;
        case ModemEvent::Type::kAddressedToUs:
          trace.id_matched = true;
          trace.band_selected = e.band;
          trace.snr_db = std::move(e.snr_db);
          break;
        case ModemEvent::Type::kPacketDecoded:
        case ModemEvent::Type::kPacketFailed:
          if (e.type == ModemEvent::Type::kPacketDecoded) {
            trace.data_found = true;
            // lint: pos-sub-ok(decode events trail the send clock on the shared medium timeline)
            trace.latency_samples = e.stream_pos - send_clock;
            trace.latency_valid = true;
            trace.decoded_bits = std::move(e.payload_bits);
            trace.coded_bits = e.coded_hard.size();
            coding::ConvolutionalCodec codec(coding::CodeRate::kRate2_3);
            // lint: alloc-ok(per-packet BER bookkeeping on the decode event)
            const std::vector<std::uint8_t> coded_tx = codec.encode(info_bits);
            for (std::size_t i = 0;
                 i < e.coded_hard.size() && i < coded_tx.size(); ++i) {
              if (e.coded_hard[i] != coded_tx[i]) trace.coded_bit_errors++;
            }
          }
          break;
        default:
          break;
      }
    }
    // The exchange is over once Alice's machine has concluded and Bob is
    // back to searching (his terminal decode fires at an absolute deadline
    // Alice's ACK listen window always outlasts).
    if (alice_done && bob_->rx_state() == Modem::RxState::kSearching) break;
  }

  if (config_.fixed_band) {
    // Baselines have no feedback exchange to fail.
    trace.band_used = *config_.fixed_band;
    trace.band_selected = *config_.fixed_band;
    trace.feedback_decoded = true;
    trace.feedback_exact = true;
  } else {
    trace.feedback_exact =
        trace.feedback_decoded && trace.id_matched &&
        trace.band_used.begin_bin == trace.band_selected.begin_bin &&
        trace.band_used.end_bin == trace.band_selected.end_bin;
  }
  if (trace.feedback_decoded) {
    trace.selected_bitrate_bps =
        config_.params.reported_bitrate_bps(trace.band_used.width());
  }
  for (std::size_t i = 0;
       i < trace.decoded_bits.size() && i < info_bits.size(); ++i) {
    if ((trace.decoded_bits[i] & 1) != (info_bits[i] & 1)) {
      trace.info_bit_errors++;
    }
  }
  trace.packet_ok = trace.data_found &&
                    trace.decoded_bits.size() == info_bits.size() &&
                    trace.info_bit_errors == 0;
  return trace;
}

}  // namespace aqua::core
