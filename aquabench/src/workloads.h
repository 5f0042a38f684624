// The benchmark's workloads. Each returns every end-to-end metric (or,
// with --trace 1, every per-layer metric) plus its operation counts.
#pragma once

#include "common.h"

namespace aquabench {

Result run_link(const Args& args);
Result run_rx_replay(const Args& args);
Result run_harbor(const Args& args);

}  // namespace aquabench
