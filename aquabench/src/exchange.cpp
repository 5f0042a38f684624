#include "exchange.h"

#include <algorithm>
#include <cstdio>
#include <random>

#include "channel/medium.h"
#include "coding/convolutional.h"
#include "core/modem.h"
#include "sim/runner.h"

namespace aquabench {

std::vector<sim::Scenario> link_grid() {
  using channel::Site;
  sim::ScenarioGrid g;
  g.sites = {Site::kBridge, Site::kPark,   Site::kLake,
             Site::kBeach,  Site::kMuseum, Site::kBay};
  g.ranges_m = {5.0, 20.0};
  g.schemes = {{"adaptive", std::nullopt},
               {"fixed 1-4 kHz", phy::BandSelection{0, 59, false}}};
  return g.expand();
}

std::uint64_t round_seed(std::uint64_t seed, int round) {
  // Cell seeds step by 7919 and packet seeds by 131 inside a round, so
  // rounds 10^6 apart never reuse a channel realization.
  return seed * 1000003ULL * 16ULL + static_cast<std::uint64_t>(round) * 1000003ULL;
}

PacketInput packet_input(const std::vector<sim::Scenario>& grid,
                         std::uint64_t round_base, std::size_t cell,
                         int packet) {
  const std::uint64_t cell_seed = round_base + cell * 7919;
  PacketInput in;
  in.config = sim::session_config(grid[cell]);
  in.config.forward.seed = cell_seed + static_cast<std::uint64_t>(packet) * 131;
  std::mt19937_64 rng(cell_seed * 77 + 5 +
                      static_cast<std::uint64_t>(packet) * 0x9e3779b97f4a7c15ULL);
  in.payload.resize(kPayloadBits);
  for (auto& b : in.payload) b = static_cast<std::uint8_t>(rng() & 1);
  return in;
}

void tally(sim::BatchStats& stats, const core::PacketTrace& t, double fs) {
  stats.sent++;
  if (t.preamble_detected) stats.preamble_detected++;
  if (t.feedback_decoded) stats.feedback_ok++;
  if (t.feedback_exact) stats.feedback_exact++;
  if (t.packet_ok) stats.delivered++;
  if (t.selected_bitrate_bps > 0.0) stats.bitrates.push_back(t.selected_bitrate_bps);
  stats.coded_errors += t.coded_bit_errors;
  stats.coded_bits += t.coded_bits;
  stats.samples += t.samples_processed;
  if (t.latency_valid) {
    stats.qoe.record("latency_s", static_cast<double>(t.latency_samples) / fs);
  }
  if (t.tx_failures > 0) stats.qoe.add("tx_failed", t.tx_failures);
}

bool same_outcomes(const sim::BatchStats& a, const sim::BatchStats& b) {
  const auto latency = [](const sim::BatchStats& s) {
    const obs::Histogram* h = s.qoe.histogram("latency_s");
    return h ? h->samples() : std::vector<double>{};
  };
  return a.sent == b.sent && a.preamble_detected == b.preamble_detected &&
         a.feedback_ok == b.feedback_ok && a.delivered == b.delivered &&
         a.feedback_exact == b.feedback_exact && a.bitrates == b.bitrates &&
         a.coded_errors == b.coded_errors && a.coded_bits == b.coded_bits &&
         a.samples == b.samples && latency(a) == latency(b) &&
         a.qoe.counter("tx_failed") == b.qoe.counter("tx_failed");
}

core::PacketTrace run_exchange(const core::SessionConfig& cfg,
                               std::span<const std::uint8_t> payload,
                               dsp::Workspace& ws, obs::Registry* dsp,
                               ExchangeTiming& timing) {
  // Session build, as LinkSession's first send_packet does it.
  auto t0 = Clock::now();
  channel::AcousticMedium medium(cfg.forward.sample_rate_hz, cfg.medium);
  channel::add_duplex_link(medium, cfg.forward);
  auto t1 = Clock::now();
  timing.session_build_ns += ns_between(t0, t1);

  core::ModemConfig mc;
  mc.params = cfg.params;
  mc.send_ack = cfg.send_ack;
  mc.fixed_band = cfg.fixed_band;
  mc.decode = cfg.decode;
  core::ModemConfig alice_cfg = mc;
  alice_cfg.my_id = cfg.alice_id;
  core::ModemConfig bob_cfg = mc;
  bob_cfg.my_id = cfg.bob_id;
  t0 = Clock::now();
  core::Modem alice(alice_cfg, ws);
  core::Modem bob(bob_cfg, ws);
  t1 = Clock::now();
  timing.modem_build_ns += ns_between(t0, t1);
  alice.set_metrics(dsp);
  bob.set_metrics(dsp);

  // From here on: LinkSession::send_packet's block loop, one span per call.
  core::PacketTrace trace;
  trace.info_bits = payload.size();
  alice.set_payload_bits(payload.size());
  bob.set_payload_bits(payload.size());
  const std::uint64_t send_clock = medium.clock();
  alice.send(payload, cfg.bob_id);

  const std::size_t block = std::max<std::size_t>(cfg.medium_block_samples, 1);
  const double fs = cfg.forward.sample_rate_hz;
  const std::uint64_t cap = medium.clock() + static_cast<std::uint64_t>(10.0 * fs);
  std::vector<double> tx_a(block), tx_b(block);
  const std::vector<std::span<const double>> tx_spans{
      std::span<const double>(tx_a), std::span<const double>(tx_b)};
  std::vector<std::vector<double>> rx;
  std::vector<core::ModemEvent> ev;
  bool alice_done = false;

  const auto timed_push = [&](core::Modem& m, std::span<const double> mic) {
    const auto a = Clock::now();
    ev = m.push(mic);
    const double ns = ns_between(a, Clock::now());
    timing.push_ns += ns;
    timing.push_us.push_back(ns * 1e-3);
    if (!ev.empty()) timing.decision_ms.push_back(ns * 1e-6);
    timing.mic_samples += mic.size();
  };

  while (medium.clock() < cap) {
    auto a = Clock::now();
    alice.pull_tx(std::span<double>(tx_a));
    bob.pull_tx(std::span<double>(tx_b));
    auto b = Clock::now();
    timing.pull_ns += ns_between(a, b);
    medium.step(tx_spans, rx, ws);
    a = Clock::now();
    const double step_ns = ns_between(b, a);
    timing.step_ns += step_ns;
    timing.step_us.push_back(step_ns * 1e-3);
    trace.samples_processed += 2 * block;

    timed_push(alice, rx[0]);
    for (const core::ModemEvent& e : ev) {
      switch (e.type) {
        case core::ModemEvent::Type::kTxFeedbackReceived:
          trace.feedback_decoded = true;
          trace.band_used = e.band;
          break;
        case core::ModemEvent::Type::kTxComplete:
          trace.ack_received = e.ack_received;
          alice_done = true;
          break;
        case core::ModemEvent::Type::kTxFailed:
          trace.tx_failures++;
          alice_done = true;
          break;
        default:
          break;
      }
    }
    timed_push(bob, rx[1]);
    for (core::ModemEvent& e : ev) {
      switch (e.type) {
        case core::ModemEvent::Type::kPreambleDetected:
          trace.preamble_detected = true;
          trace.preamble_metric = e.preamble_metric;
          break;
        case core::ModemEvent::Type::kAddressedToUs:
          trace.id_matched = true;
          trace.band_selected = e.band;
          trace.snr_db = std::move(e.snr_db);
          break;
        case core::ModemEvent::Type::kPacketDecoded: {
          trace.data_found = true;
          trace.latency_samples = e.stream_pos - send_clock;
          trace.latency_valid = true;
          trace.decoded_bits = std::move(e.payload_bits);
          trace.coded_bits = e.coded_hard.size();
          coding::ConvolutionalCodec codec(coding::CodeRate::kRate2_3);
          const std::vector<std::uint8_t> coded_tx = codec.encode(payload);
          for (std::size_t i = 0; i < e.coded_hard.size() && i < coded_tx.size();
               ++i) {
            if (e.coded_hard[i] != coded_tx[i]) trace.coded_bit_errors++;
          }
          break;
        }
        default:
          break;
      }
    }
    if (alice_done && bob.rx_state() == core::Modem::RxState::kSearching) {
      timing.terminated = true;
      break;
    }
  }

  if (cfg.fixed_band) {
    trace.band_used = *cfg.fixed_band;
    trace.band_selected = *cfg.fixed_band;
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
        cfg.params.reported_bitrate_bps(trace.band_used.width());
  }
  for (std::size_t i = 0; i < trace.decoded_bits.size() && i < payload.size();
       ++i) {
    if ((trace.decoded_bits[i] & 1) != (payload[i] & 1)) trace.info_bit_errors++;
  }
  trace.packet_ok = trace.data_found &&
                    trace.decoded_bits.size() == payload.size() &&
                    trace.info_bit_errors == 0;

  timing.medium = medium.metrics();
  timing.connected_paths = medium.connected_paths();
  timing.audible_paths = medium.audible_paths();
  return trace;
}

std::vector<sim::BatchStats> DrivenRound::per_cell(
    const std::vector<sim::Scenario>& grid) const {
  std::vector<sim::BatchStats> out(grid.size());
  for (const DrivenExchange& x : items) {
    tally(out[x.cell], x.trace, sim::session_config(grid[x.cell]).forward.sample_rate_hz);
  }
  return out;
}

DrivenRound drive_round(const std::vector<sim::Scenario>& grid,
                        std::uint64_t seed, bool stage_timers) {
  DrivenRound d;
  d.items.resize(grid.size() * kPacketsPerCell);
  sim::RunnerOptions opts;
  opts.threads = kWorkers;
  const sim::SweepRunner runner(opts);
  const auto t0 = Clock::now();
  runner.parallel_for(
      d.items.size(),
      [&](std::size_t i, std::mt19937_64&, dsp::Workspace& ws) {
        const auto start = Clock::now();
        DrivenExchange& x = d.items[i];
        x.cell = i / kPacketsPerCell;
        const PacketInput in = packet_input(grid, round_seed(seed, 0), x.cell,
                                            static_cast<int>(i % kPacketsPerCell));
        x.trace = run_exchange(in.config, in.payload, ws,
                               stage_timers ? &x.dsp : nullptr, x.timing);
        x.item_ns = ns_between(start, Clock::now());
      });
  d.wall_s = seconds_since(t0);
  return d;
}

std::vector<DrivenRound> drive_repeats(Result& r,
                                       const std::vector<sim::Scenario>& grid,
                                       std::uint64_t seed) {
  std::vector<DrivenRound> repeats;
  for (int k = 0; k < kLoopRepeats; ++k) {
    repeats.push_back(drive_round(grid, seed, false));
    check_round(r, repeats.back());
    if (k == 0) continue;
    const std::vector<sim::BatchStats> first = repeats.front().per_cell(grid);
    const std::vector<sim::BatchStats> again = repeats.back().per_cell(grid);
    for (std::size_t c = 0; c < grid.size(); ++c) {
      if (!same_outcomes(first[c], again[c])) {
        r.fail(static_cast<std::uint64_t>(again[c].sent),
               "repeat " + std::to_string(k) + " of " +
                   sim::scenario_label(grid[c]) + " differs from the first");
      }
    }
  }
  return repeats;
}

void add_outcomes(LinkOutcomes& out, const std::vector<sim::Scenario>& grid,
                  const std::vector<sim::BatchStats>& per_cell) {
  for (std::size_t c = 0; c < per_cell.size(); ++c) {
    const sim::BatchStats& s = per_cell[c];
    out.sent += s.sent;
    out.delivered += s.delivered;
    if (!adaptive(grid[c])) continue;
    if (const obs::Histogram* h = s.qoe.histogram("latency_s")) {
      out.latency_s.insert(out.latency_s.end(), h->samples().begin(),
                           h->samples().end());
    }
    out.bitrate_bps.insert(out.bitrate_bps.end(), s.bitrates.begin(),
                           s.bitrates.end());
  }
}

void report_outcomes(Result& r, const LinkOutcomes& o) {
  r.require(o.sent > 0 && !o.latency_s.empty() && !o.bitrate_bps.empty(),
            "the exchanges produced delivery, latency and bitrate samples");
  r.add("delivery_ratio",
        o.sent > 0 ? static_cast<double>(o.delivered) / o.sent : 0.0,
        "fraction");
  r.add("latency_s_p50", percentile(o.latency_s, 50.0), "s");
  r.add("latency_s_p90", percentile(o.latency_s, 90.0), "s");
  // The mean, not the median: adaptive bitrates spread near-uniformly from
  // ~70 to ~1800 bps with seed-dependent gaps, so the median jumps by up to
  // 40% between seeds where the mean moves a few percent.
  double bitrate_sum = 0.0;
  for (const double b : o.bitrate_bps) bitrate_sum += b;
  r.add("bitrate_bps_mean",
        o.bitrate_bps.empty() ? 0.0
                              : bitrate_sum / static_cast<double>(o.bitrate_bps.size()),
        "bps");
  std::printf("# delivered %d of %d exchanges\n", o.delivered, o.sent);
  print_timing("latency_s (adaptive, delivered)", o.latency_s, "s");
  print_timing("bitrate_bps (adaptive, feedback decoded)", o.bitrate_bps, "bps");
}

void report_loop_receiver(Result& r, const std::vector<DrivenRound>& repeats,
                          double fs) {
  double rx_ns = 0.0;
  double mic = 0.0;
  std::vector<double> decision_ms;
  for (std::size_t i = 0; i < repeats.front().items.size(); ++i) {
    std::vector<const std::vector<double>*> push_us, decisions;
    double pull_ns = repeats.front().items[i].timing.pull_ns;
    for (const DrivenRound& d : repeats) {
      push_us.push_back(&d.items[i].timing.push_us);
      decisions.push_back(&d.items[i].timing.decision_ms);
      pull_ns = std::min(pull_ns, d.items[i].timing.pull_ns);
    }
    const std::vector<double> push = elementwise_min(push_us);
    const std::vector<double> decided = elementwise_min(decisions);
    r.require(!push.empty(), "repeats of an exchange push the same blocks");
    for (const double us : push) rx_ns += us * 1e3;
    rx_ns += pull_ns;
    mic += static_cast<double>(repeats.front().items[i].timing.mic_samples);
    decision_ms.insert(decision_ms.end(), decided.begin(), decided.end());
  }
  r.require(mic > 0 && !decision_ms.empty(),
            "the receivers pushed audio and made decisions");
  r.add("rx_rtf", mic > 0 ? rx_ns * 1e-9 / (mic / fs) : 0.0, "s/s");
  r.add("rx_decision_ms_p50", percentile(decision_ms, 50.0), "ms");
  r.add("rx_decision_ms_p90", percentile(decision_ms, 90.0), "ms");
  print_timing("rx_decision_ms (in the loop, min of repeats)", decision_ms, "ms");
}

void check_round(Result& r, const DrivenRound& round) {
  for (const DrivenExchange& x : round.items) {
    r.check(x.timing.terminated,
            "exchange in cell " + std::to_string(x.cell) + " concluded");
  }
}

}  // namespace aquabench
