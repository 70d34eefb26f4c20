#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

/** ceil(p/100 * n), tolerant of the rounding in p/100 * n (99.9% of
 *  10000 must be rank 9990, not 9991). */
double
nearestRank(double p, size_t n)
{
    return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of no values");
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        throw std::invalid_argument("percentile of no values");
    std::sort(v.begin(), v.end());
    double rank = nearestRank(p, v.size());
    size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
tailPercentile(size_t n)
{
    for (double p : {99.9, 99.0, 90.0, 50.0}) {
        double rank = nearestRank(p, n);
        if (static_cast<double>(n) - rank >= 10)
            return p;
    }
    return 50.0;
}

} // namespace perfbench
