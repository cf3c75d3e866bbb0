#ifndef HARMONY_COMMON_PERCENTILE_H_
#define HARMONY_COMMON_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace harmony {

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least a fraction `p` (in [0, 1]) of the samples at or below it,
/// i.e. sorted[ceil(p * n) - 1]. p99 of ten samples is the largest one.
/// Returns 0 for an empty sample.
inline double NearestRankPercentile(const std::vector<double>& sorted,
                                    double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  const double rank = std::clamp(std::ceil(p * n), 1.0, n);
  return sorted[static_cast<std::size_t>(rank) - 1];
}

}  // namespace harmony

#endif  // HARMONY_COMMON_PERCENTILE_H_
