#pragma once
// Small helpers shared by the benchmark's translation units: clocks,
// order statistics, and the failure type that names the step that broke.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// A benchmark step failed (spawn, readiness, a wrong answer, a drain
/// without its `drained:` line, ...). `what()` names the step.
struct StepError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
template <typename T>
double quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1.0 - frac) +
         static_cast<double>(values[hi]) * frac;
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

}  // namespace perfbench
