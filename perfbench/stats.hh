/**
 * @file
 * Order statistics for the benchmark's reports: median, nearest-rank
 * percentiles, and the tail percentile rule "highest percentile with
 * at least ten samples beyond it".
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench {

/** Median of v (mean of the middle two for even sizes); v non-empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile: the ceil(p/100 * n)-th smallest value. */
double percentile(std::vector<double> v, double p);

/**
 * The highest of the 50th, 90th, 99th and 99.9th percentiles that
 * leaves at least ten of n samples above its nearest rank; 50 when
 * no candidate does (fewer than 20 samples).
 */
double tailPercentile(size_t n);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
