#include "common/rng.h"

#include <map>
#include <mutex>
#include <utility>

#include "common/logging.h"

namespace rif {

namespace {

/** splitmix64 step used to expand a single seed into generator state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
    // Guard against the all-zero state, which is a fixed point.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    RIF_ASSERT(n > 0);
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = ~std::uint64_t(0) - (~std::uint64_t(0) % n);
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

double
Rng::gaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300)
        u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian_ = r * std::sin(theta);
    hasCachedGaussian_ = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

double
Rng::exponential(double rate)
{
    RIF_ASSERT(rate > 0.0);
    double u = 0.0;
    while (u <= 1e-300)
        u = uniform();
    return -std::log(u) / rate;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

namespace {

/**
 * zeta(n, theta) = sum 1/(i+1)^theta: an exact O(n) sum over a
 * million-page hot set. Every sweep point constructs its own workload
 * generator with the same (n, theta), so cache the sum — the cached
 * value is the bit-identical result of the first (sequential)
 * computation, keeping every trace stream unchanged.
 */
double
zetaSum(std::uint64_t n, double theta)
{
    static std::mutex mutex;
    static std::map<std::pair<std::uint64_t, double>, double> cache;
    const auto key = std::make_pair(n, theta);
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    double zeta = 0.0;
    for (std::uint64_t i = 0; i < n; ++i)
        zeta += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    std::lock_guard<std::mutex> lock(mutex);
    cache.emplace(key, zeta);
    return zeta;
}

} // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    RIF_ASSERT(n > 0);
    RIF_ASSERT(theta >= 0.0 && theta < 1.0,
               "ZipfSampler implements the 0 <= theta < 1 YCSB form");
    double zeta2 = 0.0;
    for (std::uint64_t i = 0; i < 2 && i < n; ++i)
        zeta2 += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    zetaN_ = zetaSum(n, theta);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta_)) /
           (1.0 - zeta2 / zetaN_);
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    // Gray/Jim Gray et al. "Quickly generating billion-record synthetic
    // databases" rejection-free method as popularized by YCSB.
    const double u = rng.uniform();
    const double uz = u * zetaN_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r >= n_ ? n_ - 1 : r;
}

} // namespace rif
