#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::optional<double> quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * (double)(samples.size() - 1);
  const std::size_t lo = (std::size_t)std::floor(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - (double)lo;
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

std::optional<double> median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

std::optional<double> geomean(const std::vector<double>& values) {
  if (values.empty()) return std::nullopt;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return std::nullopt;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / (double)values.size());
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return buf;
}

}  // namespace perfbench
