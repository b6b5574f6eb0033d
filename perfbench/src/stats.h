// Order statistics over the traced run's samples.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace pb {

/// Median of `v` (0 for an empty sample).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Interquartile range as Python's statistics.quantiles(v, n=4) computes it
/// (the "exclusive" method), so spreads read the same here and in run.py.
inline double iqr(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 2) return 0.0;
  std::sort(v.begin(), v.end());
  auto q = [&](double p) {
    const double pos = p * static_cast<double>(n + 1);
    const auto j = std::clamp<std::size_t>(static_cast<std::size_t>(pos), 1,
                                           n - 1);
    const double delta = pos - static_cast<double>(j);
    return v[j - 1] + delta * (v[j] - v[j - 1]);
  };
  return q(0.75) - q(0.25);
}

}  // namespace pb
