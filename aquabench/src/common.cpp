#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/registry.h"

namespace aquabench {

double percentile(std::vector<double> v, double p) {
  obs::Histogram h;
  for (const double x : v) h.record(x);
  return h.percentile(p);
}

std::vector<double> elementwise_min(
    const std::vector<const std::vector<double>*>& runs) {
  if (runs.empty()) return {};
  std::vector<double> out = *runs.front();
  for (const std::vector<double>* run : runs) {
    if (run->size() != out.size()) return {};
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], (*run)[i]);
  }
  return out;
}

void Result::fail(std::uint64_t n, const std::string& what) {
  failed_ += n;
  correct_ = false;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

void Result::require(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

void Result::print() const {
  bool finite = true;
  for (const Metric& m : metrics_) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  const bool correct = correct_ && finite && attempted_ > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_timing(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit) {
  // The highest percentile that still has ten samples beyond it.
  const double n = static_cast<double>(samples.size());
  double tail = 0.0;
  for (const double p : {90.0, 99.0, 99.9}) {
    if (n * (1.0 - p / 100.0) >= 10.0) tail = p;
  }
  std::printf("# %s: p50 %.6g %s", name.c_str(), percentile(samples, 50.0),
              unit.c_str());
  if (tail > 0.0) {
    std::printf(", p%g %.6g %s", tail, percentile(samples, tail), unit.c_str());
  }
  std::printf(" (n=%zu)\n", samples.size());
}

}  // namespace aquabench
