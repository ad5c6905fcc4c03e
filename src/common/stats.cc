#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace rif {

void
PercentileTracker::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

void
PercentileTracker::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
PercentileTracker::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const double clamped = std::clamp(p, 0.0, 100.0);
    const auto n = samples_.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(n)));
    if (rank > 0)
        --rank;
    return samples_[std::min(rank, n - 1)];
}

std::vector<std::pair<double, double>>
PercentileTracker::cdf(int points) const
{
    std::vector<std::pair<double, double>> out;
    if (samples_.empty() || points < 2)
        return out;
    ensureSorted();
    const auto n = samples_.size();
    out.reserve(static_cast<std::size_t>(points));
    for (int i = 0; i < points; ++i) {
        const double frac =
            static_cast<double>(i) / static_cast<double>(points - 1);
        auto idx = static_cast<std::size_t>(
            frac * static_cast<double>(n - 1));
        out.emplace_back(samples_[idx],
                         static_cast<double>(idx + 1) /
                             static_cast<double>(n));
    }
    return out;
}

double
PercentileTracker::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

} // namespace rif
