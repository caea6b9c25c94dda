#include "harness/bench.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rio::harness
{

Zipfian::Zipfian(u64 n, double theta) : theta_(theta)
{
    assert(n > 0);
    cdf_.reserve(n);
    double total = 0.0;
    for (u64 r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
        cdf_.push_back(total);
    }
}

u64
Zipfian::sample(support::Rng &rng) const
{
    const double u = rng.real() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const auto idx =
        static_cast<u64>(std::distance(cdf_.begin(), it));
    return std::min<u64>(idx, cdf_.size() - 1);
}

} // namespace rio::harness
