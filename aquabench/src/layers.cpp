#include "layers.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "channel/channel.h"
#include "channel/noise.h"

namespace aquabench {

namespace {

// Stage timers the modem records ("<stage>.ns" / ".calls").
constexpr const char* kDspStages[] = {"dsp.scan", "dsp.tone", "dsp.feedback",
                                      "dsp.data_decode", "dsp.chanest"};

constexpr int kMicrobenchWarmup = 8;
constexpr int kMicrobenchCalls = 240;

}  // namespace

LayerMetrics::LayerMetrics() {
  const char* list[][2] = {
      {"sim.worker_busy_ratio", "ratio"},
      {"channel.medium_step.ms", "ms"},
      {"channel.medium_step.calls", "count"},
      {"channel.medium_step.us_p50", "us"},
      {"channel.medium_step.us_p99", "us"},
      {"channel.noise_block.us", "us"},
      {"channel.path_block.us", "us"},
      {"channel.session_build.ms", "ms"},
      {"medium.connected_paths", "count"},
      {"medium.audible_paths", "count"},
      {"medium.audible_ratio", "ratio"},
      {"medium.rendered_blocks", "count"},
      {"medium.culled_convolutions", "count"},
      {"medium.cull_evals", "count"},
      {"medium.shard_skew", "ratio"},
      {"medium.ring_occupancy_p99", "samples"},
      {"core.push.ms", "ms"},
      {"core.push.calls", "count"},
      {"core.push.us_p50", "us"},
      {"core.push.us_p99", "us"},
      {"core.pull_tx.ms", "ms"},
      {"core.modem_build.ms", "ms"},
      {"core.push.unattributed.ms", "ms"},
      {"dsp.scan.ms", "ms"},
      {"dsp.tone.ms", "ms"},
      {"dsp.feedback.ms", "ms"},
      {"dsp.data_decode.ms", "ms"},
      {"dsp.chanest.ms", "ms"},
      {"phy.preamble_detected", "count"},
      {"phy.id_matched", "count"},
      {"phy.feedback_exact", "count"},
      {"phy.feedback_exact_base", "count"},
      {"phy.feedback_exact_ratio", "ratio"},
      {"phy.data_found", "count"},
      {"core.ack_received", "count"},
      {"core.tx_failures", "count"},
      {"unattributed_ratio", "ratio"},
      {"tracing_overhead_ratio", "ratio"},
  };
  for (const auto& [name, unit] : list) entries_.push_back({name, unit, 0.0});
}

void LayerMetrics::set(const std::string& name, double value) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  std::fprintf(stderr, "aquabench: unknown per-layer metric %s\n", name.c_str());
  std::abort();
}

void LayerMetrics::set_push(double push_ns, const std::vector<double>& push_us,
                            const obs::Registry& dsp) {
  set("core.push.ms", push_ns * 1e-6);
  set("core.push.calls", static_cast<double>(push_us.size()));
  set("core.push.us_p50", percentile(push_us, 50.0));
  set("core.push.us_p99", percentile(push_us, 99.0));
  double stages_ms = 0.0;
  for (const char* stage : kDspStages) {
    const double ms =
        static_cast<double>(dsp.counter(std::string(stage) + ".ns")) * 1e-6;
    set(std::string(stage) + ".ms", ms);
    stages_ms += ms;
  }
  set("core.push.unattributed.ms", push_ns * 1e-6 - stages_ms);
}

void LayerMetrics::set_step(double step_ns, const std::vector<double>& step_us) {
  set("channel.medium_step.ms", step_ns * 1e-6);
  set("channel.medium_step.calls", static_cast<double>(step_us.size()));
  set("channel.medium_step.us_p50", percentile(step_us, 50.0));
  set("channel.medium_step.us_p99", percentile(step_us, 99.0));
}

void LayerMetrics::set_medium(const obs::Registry& m, double connected,
                              double audible, double shard_skew) {
  set("medium.connected_paths", connected);
  set("medium.audible_paths", audible);
  set("medium.audible_ratio", connected > 0 ? audible / connected : 0.0);
  set("medium.rendered_blocks",
      static_cast<double>(m.counter("medium.rendered_blocks")));
  set("medium.culled_convolutions",
      static_cast<double>(m.counter("medium.culled_convolutions")));
  set("medium.cull_evals", static_cast<double>(m.counter("medium.cull_evals")));
  set("medium.shard_skew", shard_skew);
  const obs::Histogram* ring = m.histogram("medium.ring_occupancy");
  set("medium.ring_occupancy_p99", ring ? ring->percentile(99.0) : 0.0);
}

void LayerMetrics::set_round(const DrivenRound& round) {
  double busy_ns = 0, build_ns = 0, modem_ns = 0, step_ns = 0, push_ns = 0,
         pull_ns = 0, connected = 0, audible = 0;
  std::vector<double> step_us, push_us;
  obs::Registry dsp, medium;
  for (const DrivenExchange& x : round.items) {
    const ExchangeTiming& t = x.timing;
    busy_ns += x.item_ns;
    build_ns += t.session_build_ns;
    modem_ns += t.modem_build_ns;
    step_ns += t.step_ns;
    push_ns += t.push_ns;
    pull_ns += t.pull_ns;
    step_us.insert(step_us.end(), t.step_us.begin(), t.step_us.end());
    push_us.insert(push_us.end(), t.push_us.begin(), t.push_us.end());
    dsp.merge(x.dsp);
    medium.merge(t.medium);
    connected += static_cast<double>(t.connected_paths);
    audible += static_cast<double>(t.audible_paths);
  }
  const double capacity_ns = kWorkers * round.wall_s * 1e9;
  set("sim.worker_busy_ratio", busy_ns / capacity_ns);
  set("channel.session_build.ms", build_ns * 1e-6);
  set("core.modem_build.ms", modem_ns * 1e-6);
  set("core.pull_tx.ms", pull_ns * 1e-6);
  set_step(step_ns, step_us);
  set_push(push_ns, push_us, dsp);
  // Each exchange's medium is single-sharded, so its skew is 1 by
  // construction.
  set_medium(medium, connected, audible, 1.0);
  // Top-level spans are the calls into the layers; the rest of the pool's
  // capacity (sweep tail, event bookkeeping) is unattributed.
  set("unattributed_ratio",
      1.0 - (build_ns + modem_ns + step_ns + push_ns + pull_ns) / capacity_ns);
}

void LayerMetrics::set_channel_microbench(const std::vector<sim::Scenario>& grid) {
  constexpr std::size_t kBlock = channel::kMultipathBlockSamples;
  std::vector<double> noise_us, path_us;
  std::set<std::pair<int, double>> seen_links;
  std::set<int> seen_sites;
  std::vector<double> speaker(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    speaker[i] = 0.5 * std::sin(2.0 * 3.14159265358979323846 * 2000.0 *
                                static_cast<double>(i) / 48000.0);
  }
  for (const sim::Scenario& s : grid) {
    const channel::LinkConfig link = sim::session_config(s).forward;
    if (seen_sites.insert(static_cast<int>(s.site)).second) {
      channel::NoiseGenerator gen(link.site.noise, link.sample_rate_hz,
                                  channel::mic_noise_seed(link.seed));
      for (int k = 0; k < kMicrobenchWarmup + kMicrobenchCalls; ++k) {
        const auto t0 = Clock::now();
        const std::vector<double> block = gen.generate(kBlock);
        const double ns = ns_between(t0, Clock::now());
        if (k >= kMicrobenchWarmup && !block.empty()) noise_us.push_back(ns * 1e-3);
      }
    }
    if (seen_links.insert({static_cast<int>(s.site), s.range_m}).second) {
      const channel::UnderwaterChannel ch(link);
      channel::UnderwaterChannel::Stream stream = ch.stream();
      dsp::Workspace ws;
      std::vector<double> out;
      for (int k = 0; k < kMicrobenchWarmup + kMicrobenchCalls; ++k) {
        out.clear();
        const auto t0 = Clock::now();
        stream.push(speaker, out, ws);
        const double ns = ns_between(t0, Clock::now());
        if (k >= kMicrobenchWarmup) path_us.push_back(ns * 1e-3);
      }
    }
  }
  // Mean per block: the overlap-save stages buffer most blocks and do
  // their work in every few, so only the mean is the cost of a block.
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  set("channel.noise_block.us", mean(noise_us));
  set("channel.path_block.us", mean(path_us));
  print_timing("channel.noise_block.us", noise_us, "us");
  print_timing("channel.path_block.us", path_us, "us");
}

void LayerMetrics::report(Result& r) const {
  for (const Entry& e : entries_) r.add(e.name, e.value, e.unit);
}

}  // namespace aquabench
