//===- perfbench/harness/Stats.h - Summary statistics -----------*- C++ -*-===//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The order statistics every reported timing goes through: the median of
/// repeated timings and percentiles of verdict latencies. Percentiles
/// interpolate linearly between the two closest ranks (the "type 7" rule
/// numpy uses by default). Geometric means come from support/Statistics.h.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// The \p P-th percentile (0..100) of \p Values; 0 for an empty input.
inline double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::clamp(P, 0.0, 100.0) / 100.0 *
                static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

inline double median(std::vector<double> Values) {
  return percentile(std::move(Values), 50.0);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
