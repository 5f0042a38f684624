// A dive group of four: three phones transmit to one receiver using the
// carrier-sense MAC. Compares collision behaviour with the MAC disabled —
// the Fig. 19 scenario as a runnable scenario script.
#include <cstdio>

#include "mac/carrier_sense.h"
#include "mac/netsim.h"
#include "channel/channel.h"

int main() {
  using namespace aqua;

  // Waveform-level carrier sensing demo: calibrate on site noise, then
  // watch the 80 ms energy track a passing transmission.
  channel::LinkConfig lc;
  lc.site = channel::site_preset(channel::Site::kBridge);
  lc.range_m = 6.0;
  lc.seed = 99;
  channel::UnderwaterChannel ch(lc);
  mac::CarrierSense cs;
  cs.calibrate(ch.ambient(3 * 48000));  // "a few seconds" of ambient noise
  std::printf("carrier-sense threshold calibrated: %.3g\n\n", cs.threshold());

  std::vector<double> tone(48000, 0.0);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = 0.2 * std::sin(2.0 * 3.14159265 * 2500.0 * i / 48000.0);
  }
  dsp::Workspace ws;
  const std::vector<double> rx = ch.transmit(tone, ws, 0.2, 0.2);
  int interval = 0;
  for (double level : cs.feed(rx)) {
    std::printf("t=%4.0f ms  level %.3g  %s\n", interval * 80.0, level,
                level > cs.threshold() ? "BUSY" : "idle");
    ++interval;
  }

  // Network simulation: 3 transmitters, 120 packets each.
  std::printf("\n=== dive group: 3 transmitters -> 1 receiver ===\n");
  for (bool carrier_sense : {false, true}) {
    mac::MacSimConfig cfg;
    cfg.num_transmitters = 3;
    cfg.packets_per_transmitter = 120;
    cfg.carrier_sense = carrier_sense;
    cfg.seed = 4;
    const mac::MacSimResult r = mac::run_mac_simulation(cfg);
    std::printf("%-24s: %5.1f%% of packets collided (%d of %d, %.0f s on air)\n",
                carrier_sense ? "with carrier sense" : "without carrier sense",
                100.0 * r.collision_fraction, r.collided_packets,
                r.total_packets, r.duration_s);
  }
  return 0;
}
