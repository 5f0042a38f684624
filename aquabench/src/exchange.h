// The paper's duplex exchange (preamble -> ID -> SNR -> two-tone feedback
// -> OFDM data -> ACK) as the benchmark drives it: the cell grid, the
// per-packet seeds and payloads sim::run_packet_range derives, and a
// block-loop driver that reproduces core::LinkSession::send_packet while
// timing every call into the channel and core layers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common.h"
#include "core/link_session.h"
#include "dsp/workspace.h"
#include "obs/registry.h"
#include "sim/sweep.h"

namespace aquabench {

/// Sweep and medium worker count of every parallel workload.
inline constexpr int kWorkers = 2;
/// Packets per cell in one round of the cell grid.
inline constexpr int kPacketsPerCell = 2;
inline constexpr std::size_t kPayloadBits = 16;

/// All six sites x {5 m, 20 m} x {adaptive, fixed 1-4 kHz}: 24 cells, in
/// sim::ScenarioGrid::expand order.
std::vector<sim::Scenario> link_grid();
inline bool adaptive(const sim::Scenario& s) { return !s.fixed_band; }

/// seed_base handed to sim::SweepRunner::run for round `round` of a run
/// seeded `seed`. Rounds never share a packet seed.
std::uint64_t round_seed(std::uint64_t seed, int round);

/// Packet `packet` of cell `cell` in a round seeded `round_base`, exactly
/// as SweepRunner::run -> sim::run_packet_range derive it.
struct PacketInput {
  core::SessionConfig config;
  std::vector<std::uint8_t> payload;
};
PacketInput packet_input(const std::vector<sim::Scenario>& grid,
                         std::uint64_t round_base, std::size_t cell,
                         int packet);

/// Adds one exchange to `stats` the way sim::run_packet_range does.
void tally(sim::BatchStats& stats, const core::PacketTrace& t, double fs);
/// True when two batches agree on every deterministic outcome (everything
/// but the wall-clock pipeline timers).
bool same_outcomes(const sim::BatchStats& a, const sim::BatchStats& b);

/// Wall-clock spans of one driven exchange.
struct ExchangeTiming {
  double session_build_ns = 0;  ///< medium + duplex link construction
  double modem_build_ns = 0;    ///< both endpoints
  double step_ns = 0;
  double push_ns = 0;
  double pull_ns = 0;
  std::vector<double> step_us;      ///< per AcousticMedium::step call
  std::vector<double> push_us;      ///< per Modem::push call
  std::vector<double> decision_ms;  ///< pushes that emitted a ModemEvent
  std::uint64_t mic_samples = 0;    ///< pushed, summed over both endpoints
  bool terminated = false;          ///< the exchange concluded before the cap
  obs::Registry medium;             ///< AcousticMedium::metrics() at the end
  std::size_t connected_paths = 0;
  std::size_t audible_paths = 0;
};

/// One exchange over a fresh two-endpoint medium, clocked block by block as
/// LinkSession::send_packet does. `dsp`, when non-null, is attached to both
/// modems' stage timers.
core::PacketTrace run_exchange(const core::SessionConfig& cfg,
                               std::span<const std::uint8_t> payload,
                               dsp::Workspace& ws, obs::Registry* dsp,
                               ExchangeTiming& timing);

/// Round 0 of the grid through run_exchange on a kWorkers sweep pool.
struct DrivenExchange {
  std::size_t cell = 0;
  core::PacketTrace trace;
  ExchangeTiming timing;
  obs::Registry dsp;
  double item_ns = 0;  ///< the parallel_for item span
};
struct DrivenRound {
  std::vector<DrivenExchange> items;  ///< cell-major, packet-minor
  double wall_s = 0;
  /// Per-cell outcomes, tallied like run_packet_range.
  std::vector<sim::BatchStats> per_cell(const std::vector<sim::Scenario>& grid)
      const;
};
/// `stage_timers` attaches a dsp stage-timer registry to every exchange.
DrivenRound drive_round(const std::vector<sim::Scenario>& grid,
                        std::uint64_t seed, bool stage_timers);

/// Times the in-loop receiver metrics are measured: the driven round runs
/// this often on identical inputs, and each push takes the minimum of its
/// executions, which strips the interference of other tenants of the host.
inline constexpr int kLoopRepeats = 3;
/// Drives round 0 kLoopRepeats times; each repeat must conclude every
/// exchange and reproduce the first repeat's outcomes.
std::vector<DrivenRound> drive_repeats(Result& r,
                                       const std::vector<sim::Scenario>& grid,
                                       std::uint64_t seed);

/// The deterministic link metrics over a set of per-cell batches: delivery
/// over every exchange; latency and bitrate over the adaptive cells (the
/// fixed-band baselines skip the feedback exchange, so their latency is a
/// different protocol and their bitrate is a constant).
struct LinkOutcomes {
  int sent = 0;
  int delivered = 0;
  std::vector<double> latency_s;
  std::vector<double> bitrate_bps;
};
void add_outcomes(LinkOutcomes& out, const std::vector<sim::Scenario>& grid,
                  const std::vector<sim::BatchStats>& per_cell);

/// Reports delivery_ratio, latency_s_p50/p90 and bitrate_bps_mean.
void report_outcomes(Result& r, const LinkOutcomes& o);
/// Reports rx_rtf and rx_decision_ms_p50/p90 measured inside the loop, per
/// push the minimum over the repeats.
void report_loop_receiver(Result& r, const std::vector<DrivenRound>& repeats,
                          double fs);
/// Counts the round's exchanges as operations: an exchange fails when it
/// ran into the hard cap without concluding.
void check_round(Result& r, const DrivenRound& round);

}  // namespace aquabench
