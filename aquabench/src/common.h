// Shared plumbing of the aqua benchmark: wall-clock spans, percentile
// summaries, and the result object every workload fills and main() prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace aqua {}

namespace aquabench {

// The benchmark calls into every aqua layer by its own name.
using namespace aqua;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}
/// Element-wise minimum over repeated executions of the same operations,
/// one equally long vector per execution; empty when the lengths differ.
std::vector<double> elementwise_min(
    const std::vector<const std::vector<double>*>& runs);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the operation counts and
/// the metrics, in the order they are added.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Counts `n` operations as attempted.
  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Counts `n` attempted operations as failed: the run is incorrect, and
  /// stderr says why.
  void fail(std::uint64_t n, const std::string& what);
  /// One checked operation.
  void check(bool ok, const std::string& what) {
    attempted(1);
    if (!ok) fail(1, what);
  }
  /// A check of the run as a whole rather than of one operation.
  void require(bool ok, const std::string& what);

  /// Human-readable report on stdout, then the one-line JSON result.
  void print() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// One line of a timing summary on stdout: median, the highest percentile
/// with at least ten samples beyond it, and the sample count.
void print_timing(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit);

}  // namespace aquabench
