/**
 * @file
 * Exact percentile tracking over stored samples, used by the simulator
 * and the benchmark harnesses for read-latency tails and CDFs.
 */

#ifndef RIF_COMMON_STATS_H
#define RIF_COMMON_STATS_H

#include <cstdint>
#include <utility>
#include <vector>

namespace rif {

/**
 * Stores every sample and answers arbitrary percentile queries; used for
 * read-latency tail analysis (Fig. 19) where exactness at p99.99 matters.
 */
class PercentileTracker
{
  public:
    /** Add one sample. */
    void add(double x);

    /**
     * Return the p-th percentile (p in [0, 100]) by nearest-rank on the
     * sorted sample set; 0 when empty.
     */
    double percentile(double p) const;

    /** Full CDF as (value, cumulative fraction) pairs over `points` knots. */
    std::vector<std::pair<double, double>> cdf(int points = 50) const;

    std::uint64_t count() const { return samples_.size(); }
    double mean() const;

    /**
     * Raw sample storage (insertion order until the first percentile()
     * call sorts it in place); used to publish whole distributions into
     * the metrics registry.
     */
    const std::vector<double> &samples() const { return samples_; }

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

} // namespace rif

#endif // RIF_COMMON_STATS_H
