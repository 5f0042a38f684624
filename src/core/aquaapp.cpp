#include "core/aquaapp.h"

#include <stdexcept>

namespace aqua::core {

MessageResult send_signals(LinkSession& session, std::uint8_t first_id,
                           std::uint8_t second_id) {
  if (first_id >= MessageCodebook::kMessageCount ||
      second_id >= MessageCodebook::kMessageCount) {
    throw std::out_of_range("send_signals: message id out of range");
  }
  const std::vector<std::uint8_t> bits =
      MessageCodebook::pack(first_id, second_id);
  MessageResult result;
  result.trace = session.send_packet(bits);
  if (result.trace.data_found && !result.trace.decoded_bits.empty()) {
    result.received = MessageCodebook::unpack(result.trace.decoded_bits);
  }
  return result;
}

SosBeaconService::SosBeaconService(double bitrate_bps, double sample_rate_hz)
    : beacon_([&] {
        if (bitrate_bps != 5.0 && bitrate_bps != 10.0 && bitrate_bps != 20.0) {
          throw std::invalid_argument(
              "SosBeaconService: bitrate must be 5, 10 or 20 bps");
        }
        phy::FskParams p;
        p.sample_rate_hz = sample_rate_hz;
        p.symbol_duration_s = 1.0 / bitrate_bps;
        return p;
      }()) {}

std::optional<std::uint8_t> SosBeaconService::send_and_receive(
    channel::UnderwaterChannel& ch, std::uint8_t diver_id) const {
  const std::vector<double> tx = beacon_.encode_sos(diver_id);
  // One beacon per call, so a call-local arena is enough.
  dsp::Workspace ws;
  const std::vector<double> rx = ch.transmit(tx, ws, 0.2, 0.2);
  return beacon_.decode_sos(rx);
}

}  // namespace aqua::core
