#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile together with the number of samples it was taken from.
struct Quantile {
  double value = 0;
  size_t n = 0;
};

/// The benchmark's one percentile routine: nearest rank. The p-th percentile
/// of n samples is the ceil(p/100 * n)-th smallest sample (the smallest for
/// p = 0). Returns {0, 0} for an empty sample.
inline Quantile NearestRank(std::vector<double> samples, double pct) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // pct * n first: exact for whole percentiles, so 90% of 100 is rank 90.
  size_t rank = static_cast<size_t>(std::ceil(pct * n / 100.0));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return {samples[rank - 1], samples.size()};
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
