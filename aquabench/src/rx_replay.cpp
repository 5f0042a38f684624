// Workload `rx_replay`: the receiver alone. Set-up renders two rounds of
// the link grid through core::LinkSession with an in-memory obs::TraceCapture
// on each exchange; the timed phase re-drives every recorded endpoint's op
// log through a freshly built core::Modem on one thread, as
// obs::replay_trace does, with no channel work at all.
#include <algorithm>
#include <bit>
#include <cstdio>

#include "layers.h"
#include "obs/trace.h"
#include "sim/runner.h"
#include "workloads.h"

namespace aquabench {

namespace {

// Rounds of the link grid captured: 96 exchanges, so the event mix that
// rx_decision_ms samples moves little from seed to seed.
constexpr int kCaptureRounds = 2;
constexpr int kSetupBatches = 3;
constexpr int kMinPasses = 4;

struct EndpointLog {
  const core::ModemConfig* config = nullptr;
  std::vector<const obs::TraceRecord*> ops;  ///< push/pull/send/payload-bits
  std::vector<const core::ModemEvent*> recorded;
};

struct Capture {
  std::size_t cell = 0;
  std::string label;  ///< for failure messages
  core::SessionConfig config;
  std::vector<std::uint8_t> payload;
  core::PacketTrace live;  ///< what the capturing session reported
  obs::Trace log;
  EndpointLog alice;  ///< LinkSession records Alice as endpoint 0
  EndpointLog bob;    ///< and Bob as endpoint 1
};

EndpointLog index_endpoint(const obs::Trace& trace, int endpoint) {
  EndpointLog log;
  log.config = trace.endpoint_config(endpoint);
  for (const obs::TraceRecord& r : trace.records) {
    if (r.endpoint != endpoint) continue;
    switch (r.kind) {
      case obs::TraceRecord::Kind::kPush:
      case obs::TraceRecord::Kind::kPull:
      case obs::TraceRecord::Kind::kSend:
      case obs::TraceRecord::Kind::kPayloadBits:
        log.ops.push_back(&r);
        break;
      case obs::TraceRecord::Kind::kEvent:
        log.recorded.push_back(&*r.event);
        break;
      default:
        break;
    }
  }
  return log;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Field-for-field, bit-exact: the comparison obs::replay_trace makes.
bool same_event(const core::ModemEvent& a, const core::ModemEvent& b) {
  if (a.type != b.type || a.stream_pos != b.stream_pos ||
      !same_bits(a.preamble_metric, b.preamble_metric) ||
      !same_bits(a.training_metric, b.training_metric) ||
      a.band.begin_bin != b.band.begin_bin || a.band.end_bin != b.band.end_bin ||
      a.band.fallback != b.band.fallback || a.ack_received != b.ack_received ||
      a.payload_bits != b.payload_bits || a.coded_hard != b.coded_hard ||
      a.snr_db.size() != b.snr_db.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.snr_db.size(); ++i) {
    if (!same_bits(a.snr_db[i], b.snr_db[i])) return false;
  }
  return true;
}

struct PassTiming {
  double wall_s = 0;
  double build_ns = 0;
  double push_ns = 0;
  double pull_ns = 0;
  double other_ns = 0;  ///< send() and set_payload_bits()
  std::uint64_t mic_samples = 0;
  std::vector<double> push_us;
  std::vector<double> decision_ms;
};

// Re-drives one endpoint's op log; returns the events it emitted, or
// nullopt when the log has a gap (capture attached after the origin).
std::optional<std::vector<core::ModemEvent>> replay_endpoint(
    const EndpointLog& log, dsp::Workspace& ws, obs::Registry* dsp,
    PassTiming& t) {
  auto t0 = Clock::now();
  core::Modem modem(*log.config, ws);
  t.build_ns += ns_between(t0, Clock::now());
  modem.set_metrics(dsp);
  std::vector<core::ModemEvent> events;
  std::uint64_t expect_start = 0;
  for (const obs::TraceRecord* r : log.ops) {
    t0 = Clock::now();
    switch (r->kind) {
      case obs::TraceRecord::Kind::kPush: {
        if (r->start != expect_start) return std::nullopt;
        expect_start += r->samples.size();
        std::vector<core::ModemEvent> ev = modem.push(r->samples);
        const double ns = ns_between(t0, Clock::now());
        t.push_ns += ns;
        t.push_us.push_back(ns * 1e-3);
        if (!ev.empty()) t.decision_ms.push_back(ns * 1e-6);
        t.mic_samples += r->samples.size();
        for (core::ModemEvent& e : ev) events.push_back(std::move(e));
        break;
      }
      case obs::TraceRecord::Kind::kPull:
        modem.pull_tx(static_cast<std::size_t>(r->count));
        t.pull_ns += ns_between(t0, Clock::now());
        break;
      case obs::TraceRecord::Kind::kSend:
        modem.send(r->bits, r->dest_id);
        t.other_ns += ns_between(t0, Clock::now());
        break;
      default:  // kPayloadBits
        modem.set_payload_bits(static_cast<std::size_t>(r->payload_bits));
        t.other_ns += ns_between(t0, Clock::now());
        break;
    }
  }
  return events;
}

bool matches(const std::optional<std::vector<core::ModemEvent>>& got,
             const EndpointLog& log) {
  if (!got || got->size() != log.recorded.size()) return false;
  for (std::size_t i = 0; i < got->size(); ++i) {
    if (!same_event((*got)[i], *log.recorded[i])) return false;
  }
  return true;
}

// The exchange outcome send_packet derives, rebuilt from replayed events.
core::PacketTrace derive_outcome(const Capture& c,
                                 const std::vector<core::ModemEvent>& alice,
                                 const std::vector<core::ModemEvent>& bob) {
  core::PacketTrace t;
  std::uint64_t send_pos = 0;
  for (const obs::TraceRecord* r : c.alice.ops) {
    if (r->kind == obs::TraceRecord::Kind::kSend) {
      send_pos = r->start;
      break;
    }
  }
  for (const core::ModemEvent& e : alice) {
    if (e.type == core::ModemEvent::Type::kTxFeedbackReceived) {
      t.feedback_decoded = true;
      t.band_used = e.band;
    }
  }
  for (const core::ModemEvent& e : bob) {
    if (e.type == core::ModemEvent::Type::kPacketDecoded) {
      t.data_found = true;
      t.latency_valid = true;
      t.latency_samples = e.stream_pos - send_pos;
      t.decoded_bits = e.payload_bits;
    }
  }
  if (c.config.fixed_band) {
    t.band_used = *c.config.fixed_band;
    t.feedback_decoded = true;
  }
  if (t.feedback_decoded) {
    t.selected_bitrate_bps = c.config.params.reported_bitrate_bps(t.band_used.width());
  }
  bool exact = t.decoded_bits.size() == c.payload.size();
  for (std::size_t i = 0; exact && i < c.payload.size(); ++i) {
    exact = (t.decoded_bits[i] & 1) == (c.payload[i] & 1);
  }
  t.packet_ok = t.data_found && exact;
  return t;
}

// One pass over every captured exchange; counts each endpoint replay as an
// operation that fails when its events differ from the recording.
PassTiming replay_pass(Result& r, const std::vector<Capture>& caps,
                       dsp::Workspace& ws, obs::Registry* dsp,
                       std::vector<core::PacketTrace>* outcomes) {
  PassTiming t;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const Capture& c = caps[i];
    const auto alice = replay_endpoint(c.alice, ws, dsp, t);
    const auto bob = replay_endpoint(c.bob, ws, dsp, t);
    r.check(matches(alice, c.alice), c.label + ": endpoint 0 replays its recording");
    r.check(matches(bob, c.bob), c.label + ": endpoint 1 replays its recording");
    if (outcomes && alice && bob) outcomes->push_back(derive_outcome(c, *alice, *bob));
  }
  t.wall_s = seconds_since(t0);
  return t;
}

}  // namespace

Result run_rx_replay(const Args& args) {
  Result r;
  const std::vector<sim::Scenario> grid = link_grid();
  const double fs = sim::session_config(grid[0]).forward.sample_rate_hz;

  // Set-up: capture kCaptureRounds rounds of the grid, in kSetupBatches
  // interleaved batches on the kWorkers pool. setup_s is kSetupBatches
  // times the median batch, an estimate of the whole capture that one slow
  // batch cannot move.
  const std::size_t per_round = grid.size() * kPacketsPerCell;
  std::vector<Capture> caps(kCaptureRounds * per_round);
  sim::RunnerOptions opts;
  opts.threads = kWorkers;
  const sim::SweepRunner runner(opts);
  std::vector<double> batch_s;
  for (int k = 0; k < kSetupBatches; ++k) {
    std::vector<std::size_t> batch;
    for (std::size_t i = static_cast<std::size_t>(k); i < caps.size();
         i += kSetupBatches) {
      batch.push_back(i);
    }
    const auto t0 = Clock::now();
    runner.parallel_for(batch.size(), [&](std::size_t j, std::mt19937_64&,
                                          dsp::Workspace& ws) {
      const std::size_t i = batch[j];
      Capture& c = caps[i];
      const std::size_t j_round = i % per_round;
      c.cell = j_round / kPacketsPerCell;
      PacketInput in = packet_input(
          grid, round_seed(args.seed, static_cast<int>(i / per_round)), c.cell,
          static_cast<int>(j_round % kPacketsPerCell));
      obs::TraceCapture capture;
      core::LinkSession session(in.config, ws);
      session.set_trace_sink(&capture);
      c.live = session.send_packet(in.payload);
      session.set_trace_sink(nullptr);
      c.log = capture.take();
      c.label = "exchange " + std::to_string(i) + " (" +
                sim::scenario_label(grid[c.cell]) + ")";
      c.config = std::move(in.config);
      c.payload = std::move(in.payload);
    });
    batch_s.push_back(seconds_since(t0));
  }
  double capture_s = 0.0;
  std::uint64_t mixed = 0;
  for (const double s : batch_s) capture_s += s;
  for (Capture& c : caps) {
    c.alice = index_endpoint(c.log, 0);
    c.bob = index_endpoint(c.log, 1);
    r.require(c.alice.config && c.bob.config, "capture recorded both endpoints");
    mixed += c.live.samples_processed;
  }
  if (!caps.front().alice.config) return r;
  dsp::Workspace ws;

  if (args.trace) {
    // A first pass warms the workspace and the allocator for both.
    replay_pass(r, caps, ws, nullptr, nullptr);
    const PassTiming plain = replay_pass(r, caps, ws, nullptr, nullptr);
    obs::Registry dsp;
    const PassTiming traced = replay_pass(r, caps, ws, &dsp, nullptr);
    LayerMetrics layers;
    layers.set_push(traced.push_ns, traced.push_us, dsp);
    layers.set("core.pull_tx.ms", traced.pull_ns * 1e-6);
    layers.set("core.modem_build.ms", traced.build_ns * 1e-6);
    layers.set("unattributed_ratio",
               1.0 - (traced.build_ns + traced.push_ns + traced.pull_ns +
                      traced.other_ns) / (traced.wall_s * 1e9));
    layers.set("tracing_overhead_ratio", traced.wall_s / plain.wall_s - 1.0);
    layers.report(r);
    return r;
  }

  // Every pass re-executes the same pushes on the same inputs. Throughput
  // is the median over passes; the receiver's own cost takes, per push, the
  // minimum over passes, which strips the interference of other tenants of
  // the host (it moved single decisions by up to 30% between runs).
  std::vector<PassTiming> passes;
  std::vector<double> rate, speed;
  std::vector<core::PacketTrace> outcomes;
  const auto start = Clock::now();
  for (int pass = 0; pass < kMinPasses || seconds_since(start) < args.seconds;
       ++pass) {
    passes.push_back(
        replay_pass(r, caps, ws, nullptr, pass == 0 ? &outcomes : nullptr));
    const PassTiming& t = passes.back();
    const double audio_s = static_cast<double>(t.mic_samples) / fs;
    rate.push_back(static_cast<double>(caps.size()) / t.wall_s);
    speed.push_back(audio_s / 2.0 / t.wall_s);
  }
  std::vector<const std::vector<double>*> push_runs, decision_runs;
  double pull_ns = passes.front().pull_ns;
  for (const PassTiming& t : passes) {
    push_runs.push_back(&t.push_us);
    decision_runs.push_back(&t.decision_ms);
    pull_ns = std::min(pull_ns, t.pull_ns);
  }
  const std::vector<double> push_us = elementwise_min(push_runs);
  const std::vector<double> decision_ms = elementwise_min(decision_runs);
  r.require(!push_us.empty() && !decision_ms.empty(),
            "every pass pushes the same blocks and decides the same decisions");
  double rx_ns = pull_ns;
  for (const double us : push_us) rx_ns += us * 1e3;
  const double audio_s = static_cast<double>(passes.front().mic_samples) / fs;

  // The replayed events must reproduce what the live session reported.
  std::vector<sim::BatchStats> per_cell(grid.size());
  r.require(outcomes.size() == caps.size(), "every exchange replayed");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const core::PacketTrace& got = outcomes[i];
    const core::PacketTrace& live = caps[i].live;
    r.require(got.packet_ok == live.packet_ok &&
                  got.latency_valid == live.latency_valid &&
                  got.latency_samples == live.latency_samples &&
                  got.selected_bitrate_bps == live.selected_bitrate_bps,
              "exchange " + std::to_string(i) +
                  ": replayed outcome equals the live session's");
    tally(per_cell[caps[i].cell], got, fs);
  }
  LinkOutcomes o;
  add_outcomes(o, grid, per_cell);

  print_timing("setup batch_s", batch_s, "s");
  print_timing("exchanges_per_s (per pass)", rate, "1/s");
  print_timing("rx_decision_ms (min over passes)", decision_ms, "ms");
  r.add("setup_s", kSetupBatches * median(batch_s), "s");
  r.add("exchanges_per_s", median(rate), "1/s");
  r.add("sim_speed_x", median(speed), "x");
  report_outcomes(r, o);
  r.add("rx_rtf", rx_ns * 1e-9 / audio_s, "s/s");
  r.add("rx_decision_ms_p50", percentile(decision_ms, 50.0), "ms");
  r.add("rx_decision_ms_p90", percentile(decision_ms, 90.0), "ms");
  // The only medium work in this workload is the capture in set-up.
  r.add("medium_samples_per_s", static_cast<double>(mixed) / capture_s, "1/s");
  return r;
}

}  // namespace aquabench
