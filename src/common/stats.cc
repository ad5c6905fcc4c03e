#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace rif {

void
RunningStats::add(double x)
{
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double nt = na + nb;
    m2_ += other.m2_ + delta * delta * na * nb / nt;
    mean_ = (na * mean_ + nb * other.mean_) / nt;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStats::variance() const
{
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

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
