// aquabench: the aqua benchmark driver.
//
//   aquabench --workload <link|rx_replay|harbor> --seed <n> --seconds <s>
//             --trace <0|1>
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: every end-to-end
// metric with --trace 0, every per-layer metric with --trace 1. The seed
// is the only source of the workload's inputs.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "aquabench: %s\nusage: aquabench --workload "
               "<link|rx_replay|harbor> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  aquabench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  aquabench::Result (*run)(const aquabench::Args&) = nullptr;
  if (args.workload == "link") run = aquabench::run_link;
  if (args.workload == "rx_replay") run = aquabench::run_rx_replay;
  if (args.workload == "harbor") run = aquabench::run_harbor;
  if (!run) return usage("--workload must be link, rx_replay or harbor");

  std::printf("# aquabench %s seed %llu, %.0f s, trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  try {
    run(args).print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aquabench: %s\n", e.what());
    return 1;
  }
  return 0;
}
