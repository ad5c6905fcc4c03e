/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * simulation. All stochastic components of the library draw from Rng so a
 * fixed seed reproduces a run bit-for-bit (the simulator never consults
 * wall-clock time or std::random_device).
 */

#ifndef RIF_COMMON_RNG_H
#define RIF_COMMON_RNG_H

#include <cstdint>
#include <cmath>

namespace rif {

/**
 * xoshiro256** generator: small state, very fast, high quality — a good
 * fit for Monte-Carlo error injection where std::mt19937_64 is
 * unnecessarily slow.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 state expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /**
     * Next raw 64-bit value. Inline: this is the innermost call of
     * every stochastic component (trace generation, read planning,
     * preconditioning).
     */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1).
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n) (n > 0). */
    std::uint64_t below(std::uint64_t n);

    /** Bernoulli trial with success probability p. */
    bool chance(double p) { return uniform() < p; }

    /** Standard normal via Box-Muller (cached second value). */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /** Lognormal: exp(N(mu, sigma)). */
    double lognormal(double mu, double sigma);

    /** Exponential with the given rate (mean 1/rate). */
    double exponential(double rate);

    /** Fork an independent stream (used to seed per-component RNGs). */
    Rng fork();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    double cachedGaussian_ = 0.0;
    bool hasCachedGaussian_ = false;
};

/**
 * Zipf-distributed integer sampler over [0, n): rank r is drawn with
 * probability proportional to 1/(r+1)^theta. Uses the rejection-free
 * YCSB method on constants precomputed at construction; suitable for
 * hot-set modeling in workload generators.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta);

    /** Sample a rank in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    std::uint64_t size() const { return n_; }

  private:
    std::uint64_t n_;
    double rank1Bound_; ///< 1 + 0.5^theta: u * zetaN below it draws rank 1
    double zetaN_;
    double alpha_;
    double eta_;
};

} // namespace rif

#endif // RIF_COMMON_RNG_H
