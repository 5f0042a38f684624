// The traced run's per-layer metrics. Every workload reports the full list;
// a layer that the workload's timed phase never calls reads 0, which is the
// "no change" prediction for that workload made visible.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "exchange.h"
#include "obs/registry.h"

namespace aquabench {

class LayerMetrics {
 public:
  LayerMetrics();
  /// Sets a metric of the fixed list (unknown names are a programming error
  /// and abort the run).
  void set(const std::string& name, double value);

  /// Spans and counts of the traced link round: sim, channel.medium_step,
  /// channel.session_build, medium totals, core and dsp.
  void set_round(const DrivenRound& round);
  /// core.push.* from per-call spans, plus dsp.* and
  /// core.push.unattributed.ms from the merged stage-timer registry.
  void set_push(double push_ns, const std::vector<double>& push_us,
                const obs::Registry& dsp);
  /// channel.medium_step.* from per-call spans.
  void set_step(double step_ns, const std::vector<double>& step_us);
  /// medium.* counters from AcousticMedium::metrics() and path counts.
  void set_medium(const obs::Registry& m, double connected, double audible,
                  double shard_skew);
  /// channel.noise_block.us / channel.path_block.us: mean cost of one
  /// medium-size block on the link cells' sites and link configs.
  void set_channel_microbench(const std::vector<sim::Scenario>& grid);

  void report(Result& r) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Entry> entries_;
};

}  // namespace aquabench
