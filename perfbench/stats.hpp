// Sample statistics and digests shared by the benchmark workloads.
//
// Quantiles use linear interpolation between order statistics (the
// "type 7" estimator numpy and R default to): q = 0.5 is the usual
// median, and any q is defined for a single sample.  An empty sample set
// has no quantile; callers report that as missing instead of as 0.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// q-quantile (q in [0, 1]) of `samples`; nullopt when empty.
std::optional<double> quantile(std::vector<double> samples, double q);

/// quantile(samples, 0.5).
std::optional<double> median(const std::vector<double>& samples);

/// Geometric mean of strictly positive values; nullopt when empty or when
/// any value is not positive.
std::optional<double> geomean(const std::vector<double>& values);

/// FNV-1a 64-bit, folded byte by byte.
class Fnv64 {
 public:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  /// The eight little-endian bytes of `v`.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte((std::uint8_t)(v >> (8 * i)));
  }
  void bytes(const std::string& s) {
    for (char c : s) byte((std::uint8_t)c);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;  // offset basis
};

/// 16 lowercase hex digits.
std::string hex16(std::uint64_t v);

}  // namespace perfbench
