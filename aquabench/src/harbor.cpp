// Workload `harbor`: the channel layer alone, used the way dense
// deployments use it. kNodes nodes placed by mac::place_nodes(kHarbor) on
// one channel::AcousticMedium with audibility culling and kWorkers medium
// workers; group heads send staggered 1-4 kHz chirp bursts, as in
// bench_harbor, and no modem listens. Thousands of paths are connected but
// only a fraction is audible, so mixing, culling and the ShardPool epoch
// barrier set the cost.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "channel/audibility.h"
#include "channel/medium.h"
#include "dsp/chirp.h"
#include "layers.h"
#include "mac/netsim.h"
#include "workloads.h"

namespace aquabench {

namespace {

constexpr int kNodes = 100;
constexpr double kSpacingM = 5.0;
constexpr int kSetupRepeats = 3;
// The timed phase mixes a fixed number of blocks per requested second,
// about what this deployment mixes per second on a 4-core x86 host, split
// over the kSetupRepeats deployments set-up builds. A fixed count keeps the
// content of the phase a function of the arguments: all audible paths
// share one overlap-save schedule, so every seventh or eighth block costs
// some 70 times a plain one, and a time-bounded phase would catch a
// varying number of those.
constexpr double kBlocksPerSecond = 6.0;
constexpr int kMinBlocks = 20;
constexpr int kTraceBlocks = 30;
// Blocks the 1-worker reference mixes; the first block is set-up's.
constexpr int kReferenceBlocks = 6;
constexpr std::size_t kBlock = channel::kMultipathBlockSamples;
constexpr double kFs = 48000.0;

struct Harbor {
  std::unique_ptr<channel::AcousticMedium> medium;
  std::vector<double> burst;
  std::vector<std::vector<double>> tx;
  std::vector<std::span<const double>> tx_spans;
  std::vector<std::vector<double>> rx;
  dsp::Workspace ws;
  std::uint64_t next_block = 0;
};

std::uint64_t harbor_seed(std::uint64_t seed) { return 4242 + seed * 7919; }

// bench_harbor's deployment at kNodes nodes: every pair within 1.5x the
// audibility bound is connected, so the culler, not the connect cut,
// keeps inaudible pairs off the hot path.
std::unique_ptr<Harbor> build_harbor(std::uint64_t seed, int workers) {
  auto h = std::make_unique<Harbor>();
  channel::MediumConfig mc;
  mc.workers = workers;
  mc.cull_enabled = true;
  mc.cull.margin_db = 0.0;
  h->medium = std::make_unique<channel::AcousticMedium>(kFs, mc);
  const channel::SitePreset site = channel::site_preset(channel::Site::kBridge);
  const auto pos = mac::place_nodes(mac::Placement::kHarbor, kNodes, kSpacingM, seed);
  for (int i = 0; i < kNodes; ++i) {
    h->medium->add_endpoint(site.noise, channel::mic_noise_seed(seed, i), i);
  }
  const auto link = [&](double range, std::uint64_t s) {
    channel::LinkConfig lc;
    lc.site = site;
    lc.range_m = range;
    lc.sample_rate_hz = kFs;
    lc.seed = s;
    return lc;
  };
  const auto l1 = [](const std::vector<double>& fir) {
    double sum = 0.0;
    for (const double v : fir) sum += std::abs(v);
    return sum;
  };
  const channel::LinkConfig proto = link(1.0, seed);
  const double device_l1 = l1(channel::link_device_fir(proto, true)) *
                           l1(channel::link_device_fir(proto, false));
  const double radius =
      1.5 * channel::audible_range_m(proto, device_l1,
                                     channel::noise_floor_rms(site.noise), mc.cull);
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      const double dist = std::hypot(pos[a].first - pos[b].first,
                                     pos[a].second - pos[b].second);
      if (dist > radius) continue;
      h->medium->connect(a, b, link(std::max(dist, 0.1),
                                    seed * 131 + static_cast<std::uint64_t>(a) * kNodes +
                                        static_cast<std::uint64_t>(b)));
    }
  }
  h->burst = dsp::lfm_chirp(1000.0, 4000.0, 0.1, kFs);
  for (double& v : h->burst) v *= 0.5;
  h->tx.assign(kNodes, std::vector<double>(kBlock, 0.0));
  for (const auto& t : h->tx) h->tx_spans.emplace_back(t);
  return h;
}

// Group heads (every tenth node) transmit on a 0.3 s cycle, staggered by
// group.
void fill_tx(Harbor& h) {
  const std::size_t period = static_cast<std::size_t>(0.3 * kFs);
  for (int i = 0; i < kNodes; i += 10) {
    const std::size_t offset = (static_cast<std::size_t>(i / 10) % 6) * 2400;
    std::vector<double>& block = h.tx[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < kBlock; ++k) {
      const std::size_t t = (h.next_block * kBlock + k + offset) % period;
      block[k] = t < h.burst.size() ? h.burst[t] : 0.0;
    }
  }
}

double checksum(const Harbor& h) {
  double sum = 0.0;
  for (const auto& mic : h.rx) {
    for (const double v : mic) sum += std::abs(v);
  }
  return sum;
}

struct BlockSpans {
  double fill_ns = 0, step_ns = 0, sum_ns = 0, wall_s = 0;
  std::vector<double> block_us;  ///< schedule + step + checksum
  std::vector<double> step_us;
  std::vector<double> checksums;
  std::vector<std::size_t> audible;
};

// Mixes the next `blocks` blocks; with `spans`, times the schedule, the
// step and the checksum of each.
BlockSpans mix_blocks(Harbor& h, int blocks, bool spans) {
  BlockSpans s;
  const auto start = Clock::now();
  for (int n = 0; n < blocks; ++n) {
    if (!spans) {
      fill_tx(h);
      h.medium->step(h.tx_spans, h.rx, h.ws);
      s.checksums.push_back(checksum(h));
      s.audible.push_back(h.medium->audible_paths());
      ++h.next_block;
      continue;
    }
    const auto t0 = Clock::now();
    fill_tx(h);
    const auto t1 = Clock::now();
    h.medium->step(h.tx_spans, h.rx, h.ws);
    const auto t2 = Clock::now();
    s.checksums.push_back(checksum(h));
    s.audible.push_back(h.medium->audible_paths());
    const auto t3 = Clock::now();
    ++h.next_block;
    s.fill_ns += ns_between(t0, t1);
    s.step_ns += ns_between(t1, t2);
    s.sum_ns += ns_between(t2, t3);
    s.step_us.push_back(ns_between(t1, t2) * 1e-3);
    s.block_us.push_back(ns_between(t0, t3) * 1e-3);
  }
  s.wall_s = seconds_since(start);
  return s;
}

// The mix must not depend on the worker count: the first blocks of a
// 1-worker medium of the same scenario reproduce the checksums and audible
// path counts bit for bit.
void check_reference(Result& r, std::uint64_t seed, const BlockSpans& first,
                     const BlockSpans& timed) {
  std::vector<double> sums = first.checksums;
  std::vector<std::size_t> audible = first.audible;
  sums.insert(sums.end(), timed.checksums.begin(), timed.checksums.end());
  audible.insert(audible.end(), timed.audible.begin(), timed.audible.end());
  const auto ref = build_harbor(seed, 1);
  const BlockSpans want = mix_blocks(*ref, kReferenceBlocks, false);
  for (int b = 0; b < kReferenceBlocks; ++b) {
    r.check(static_cast<std::size_t>(b) < sums.size() &&
                sums[b] == want.checksums[b] && audible[b] == want.audible[b],
            "harbor block " + std::to_string(b) +
                " mixes as the 1-worker reference does");
  }
}

double shard_skew(const channel::AcousticMedium& m) {
  double max = 0.0, sum = 0.0;
  for (int w = 0; w < m.workers(); ++w) {
    const double v =
        static_cast<double>(m.shard_metrics(w).counter("medium.rendered_blocks"));
    max = std::max(max, v);
    sum += v;
  }
  return sum > 0 ? max / (sum / m.workers()) : 0.0;
}

}  // namespace

Result run_harbor(const Args& args) {
  Result r;
  const std::uint64_t seed = harbor_seed(args.seed);

  // No modem listens in the harbor. The exchange and receiver metrics come
  // from round 0 of the link grid, driven kLoopRepeats times before the
  // harbor is built, so they see the same fresh process a link run does.
  std::vector<DrivenRound> driven;
  if (!args.trace) driven = drive_repeats(r, link_grid(), args.seed);

  // Set-up: build and connect the deployment, then mix block 0, whose
  // first culling evaluation builds every audible path's stream. Each of
  // the kSetupRepeats identical deployments then mixes the same timed
  // blocks; a block's time is its minimum over the deployments, which
  // strips the interference of other tenants of the host from the medium's
  // epoch barrier.
  const int timed_blocks = std::max(
      kMinBlocks, static_cast<int>(std::lround(kBlocksPerSecond * args.seconds /
                                               kSetupRepeats)));
  std::vector<double> setup_s;
  std::vector<BlockSpans> timed;
  std::unique_ptr<Harbor> h;
  BlockSpans first;
  for (int k = 0; k < kSetupRepeats; ++k) {
    h.reset();
    const auto t0 = Clock::now();
    h = build_harbor(seed, kWorkers);
    first = mix_blocks(*h, 1, false);
    setup_s.push_back(seconds_since(t0));
    if (!args.trace) timed.push_back(mix_blocks(*h, timed_blocks, true));
  }
  std::printf("# harbor: %d nodes, %d workers, %zu connected paths, %zu audible\n",
              kNodes, h->medium->workers(), h->medium->connected_paths(),
              h->medium->audible_paths());

  if (args.trace) {
    // The same blocks twice, on two identical deployments: once plain, once
    // with spans.
    const BlockSpans plain = mix_blocks(*h, kTraceBlocks, false);
    check_reference(r, seed, first, plain);
    const auto twin = build_harbor(seed, kWorkers);
    mix_blocks(*twin, 1, false);
    const BlockSpans traced = mix_blocks(*twin, kTraceBlocks, true);
    LayerMetrics layers;
    layers.set_step(traced.step_ns, traced.step_us);
    const channel::AcousticMedium& m = *twin->medium;
    layers.set_medium(m.metrics(), static_cast<double>(m.connected_paths()),
                      static_cast<double>(m.audible_paths()), shard_skew(m));
    layers.set_channel_microbench(link_grid());
    layers.set("unattributed_ratio",
               1.0 - (traced.fill_ns + traced.step_ns + traced.sum_ns) /
                         (traced.wall_s * 1e9));
    layers.set("tracing_overhead_ratio", traced.wall_s / plain.wall_s - 1.0);
    layers.report(r);
    return r;
  }

  std::vector<const std::vector<double>*> runs;
  for (const BlockSpans& t : timed) {
    runs.push_back(&t.block_us);
    r.require(t.checksums == timed.front().checksums,
              "identical deployments mix identical blocks");
  }
  double wall_s = 0.0;
  for (const double us : elementwise_min(runs)) wall_s += us * 1e-6;
  const double blocks = static_cast<double>(timed_blocks);
  check_reference(r, seed, first, timed.back());
  print_timing("setup_s", setup_s, "s");
  std::printf("# timed phase: %d deployments x %d blocks, %.3f s per pass at "
              "the per-block minimum\n",
              kSetupRepeats, timed_blocks, wall_s);

  std::vector<double> rate;
  for (const DrivenRound& d : driven) {
    rate.push_back(static_cast<double>(d.items.size()) / d.wall_s);
  }
  LinkOutcomes o;
  add_outcomes(o, link_grid(), driven.front().per_cell(link_grid()));

  r.add("setup_s", median(setup_s), "s");
  r.add("exchanges_per_s", median(rate), "1/s");
  r.add("sim_speed_x", blocks * kBlock / kFs / wall_s, "x");
  report_outcomes(r, o);
  report_loop_receiver(r, driven, kFs);
  r.add("medium_samples_per_s", kNodes * blocks * kBlock / wall_s, "1/s");
  return r;
}

}  // namespace aquabench
