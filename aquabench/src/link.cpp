// Workload `link`: the paper's duplex exchange end to end, closed loop,
// through sim::SweepRunner::run with kWorkers workers over the 24-cell grid.
#include <cstdio>
#include <optional>

#include "layers.h"
#include "sim/runner.h"
#include "workloads.h"

namespace aquabench {

namespace {

// Distinct rounds per run: 3 x 48 exchanges, enough that about a hundred
// are delivered and the seed-to-seed spread of the delivery ratio stays
// well inside its bound.
constexpr int kRounds = 3;
// Set-up is a tenth of a second; seven repeats keep its median steady.
constexpr int kSetupRepeats = 7;

std::vector<sim::BatchStats> stats_of(const std::vector<sim::ScenarioResult>& r) {
  std::vector<sim::BatchStats> out;
  for (const sim::ScenarioResult& s : r) out.push_back(s.stats);
  return out;
}

std::uint64_t exchanges(const std::vector<sim::ScenarioResult>& r) {
  std::uint64_t n = 0;
  for (const sim::ScenarioResult& s : r) n += static_cast<std::uint64_t>(s.stats.sent);
  return n;
}

std::uint64_t medium_samples(const std::vector<sim::ScenarioResult>& r) {
  std::uint64_t n = 0;
  for (const sim::ScenarioResult& s : r) n += s.stats.samples;
  return n;
}

// The driven round must reproduce run_packet_range cell for cell.
void check_against_runner(Result& r, const std::vector<sim::Scenario>& grid,
                          const DrivenRound& driven,
                          const std::vector<sim::ScenarioResult>& reference) {
  const std::vector<sim::BatchStats> mine = driven.per_cell(grid);
  for (std::size_t c = 0; c < grid.size(); ++c) {
    if (!same_outcomes(mine[c], reference[c].stats)) {
      r.fail(static_cast<std::uint64_t>(mine[c].sent),
             "cell " + sim::scenario_label(grid[c]) +
                 ": block-loop driver and sim::run_packet_range disagree");
    }
  }
}

// Loss funnel per cell (site x range x scheme) plus its totals.
void report_funnel(LayerMetrics& layers, const std::vector<sim::Scenario>& grid,
                   const DrivenRound& round) {
  struct Funnel {
    int sent = 0, preamble = 0, id = 0, fb_exact = 0, data = 0, delivered = 0,
        ack = 0, tx_failures = 0;
  };
  std::vector<Funnel> cells(grid.size());
  Funnel total;
  int adaptive_id = 0, adaptive_exact = 0;
  for (const DrivenExchange& x : round.items) {
    const core::PacketTrace& t = x.trace;
    Funnel& f = cells[x.cell];
    for (Funnel* g : {&f, &total}) {
      g->sent++;
      g->preamble += t.preamble_detected;
      g->id += t.id_matched;
      g->fb_exact += t.feedback_exact;
      g->data += t.data_found;
      g->delivered += t.packet_ok;
      g->ack += t.ack_received;
      g->tx_failures += static_cast<int>(t.tx_failures);
    }
    if (adaptive(grid[x.cell]) && t.id_matched) {
      adaptive_id++;
      adaptive_exact += t.feedback_exact;
    }
  }
  std::printf("# loss funnel per cell: sent preamble id feedback_exact data "
              "delivered ack tx_failures\n");
  for (std::size_t c = 0; c < grid.size(); ++c) {
    const Funnel& f = cells[c];
    std::printf("#   %-28s %d %d %d %d %d %d %d %d\n",
                sim::scenario_label(grid[c]).c_str(), f.sent, f.preamble, f.id,
                f.fb_exact, f.data, f.delivered, f.ack, f.tx_failures);
  }
  layers.set("phy.preamble_detected", total.preamble);
  layers.set("phy.id_matched", total.id);
  layers.set("phy.feedback_exact", adaptive_exact);
  layers.set("phy.feedback_exact_base", adaptive_id);
  layers.set("phy.feedback_exact_ratio",
             adaptive_id > 0 ? static_cast<double>(adaptive_exact) / adaptive_id
                             : 0.0);
  layers.set("phy.data_found", total.data);
  layers.set("core.ack_received", total.ack);
  layers.set("core.tx_failures", total.tx_failures);
}

}  // namespace

Result run_link(const Args& args) {
  Result r;
  const std::vector<sim::Scenario> grid = link_grid();
  const double fs = sim::session_config(grid[0]).forward.sample_rate_hz;

  // Set-up: the runner, every cell's session config, and one LinkSession
  // per cell, so first-use caches fill before the timed phase.
  std::vector<double> setup_s;
  std::optional<sim::SweepRunner> runner;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    sim::RunnerOptions opts;
    opts.threads = kWorkers;
    opts.chunk_packets = 1;
    runner.emplace(opts);
    for (const sim::Scenario& s : grid) {
      const core::LinkSession session(sim::session_config(s));
    }
    setup_s.push_back(seconds_since(t0));
  }

  if (args.trace) {
    // Untraced reference: the product path for round 0.
    const auto t0 = Clock::now();
    const auto reference =
        runner->run(grid, kPacketsPerCell, round_seed(args.seed, 0));
    const double untraced_s = seconds_since(t0);
    const DrivenRound traced = drive_round(grid, args.seed, true);
    check_round(r, traced);
    check_against_runner(r, grid, traced, reference);
    LinkOutcomes a, b;
    add_outcomes(a, grid, stats_of(reference));
    add_outcomes(b, grid, traced.per_cell(grid));
    r.require(a.sent == b.sent && a.delivered == b.delivered &&
                  a.latency_s == b.latency_s && a.bitrate_bps == b.bitrate_bps,
              "deterministic link metrics are bit-identical traced and untraced");

    LayerMetrics layers;
    layers.set_round(traced);
    report_funnel(layers, grid, traced);
    layers.set_channel_microbench(grid);
    layers.set("tracing_overhead_ratio", traced.wall_s / untraced_s - 1.0);
    layers.report(r);
    return r;
  }

  // Timed phase: every distinct round once, then repeats while time is
  // left; a repeat must reproduce its round bit for bit.
  std::vector<std::vector<sim::ScenarioResult>> rounds(kRounds);
  std::vector<double> rate, speed, mixed;
  LinkOutcomes outcomes;
  const auto start = Clock::now();
  for (int k = 0; k < kRounds || seconds_since(start) < args.seconds; ++k) {
    const int round = k % kRounds;
    const auto t0 = Clock::now();
    auto res = runner->run(grid, kPacketsPerCell, round_seed(args.seed, round));
    const double wall = seconds_since(t0);
    const double n = static_cast<double>(exchanges(res));
    const double samples = static_cast<double>(medium_samples(res));
    rate.push_back(n / wall);
    speed.push_back(samples / 2.0 / fs / wall);
    mixed.push_back(samples / wall);
    r.attempted(exchanges(res));
    if (k < kRounds) {
      add_outcomes(outcomes, grid, stats_of(res));
      rounds[round] = std::move(res);
      continue;
    }
    for (std::size_t c = 0; c < grid.size(); ++c) {
      if (!same_outcomes(res[c].stats, rounds[round][c].stats)) {
        r.fail(static_cast<std::uint64_t>(res[c].stats.sent),
               "repeat of round " + std::to_string(round) + " differs in " +
                   sim::scenario_label(grid[c]));
      }
    }
  }

  // The receiver's share inside the loop: round 0 again through the
  // block-loop driver, which times every push and pull and must reproduce
  // run_packet_range's outcomes.
  const std::vector<DrivenRound> driven = drive_repeats(r, grid, args.seed);
  check_against_runner(r, grid, driven.front(), rounds[0]);

  print_timing("setup_s", setup_s, "s");
  print_timing("exchanges_per_s (per round)", rate, "1/s");
  r.add("setup_s", median(setup_s), "s");
  r.add("exchanges_per_s", median(rate), "1/s");
  r.add("sim_speed_x", median(speed), "x");
  report_outcomes(r, outcomes);
  report_loop_receiver(r, driven, fs);
  r.add("medium_samples_per_s", median(mixed), "1/s");
  return r;
}

}  // namespace aquabench
