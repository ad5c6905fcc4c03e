#include "nand/characterization.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"

namespace rif {
namespace nand {

namespace {

const metrics::Counter mRetentionFits{
    "nand.characterization.retention_fits", "ops",
    "per-population retention-threshold characterizations"};

} // namespace

BlockPopulation::BlockPopulation(const RberModel &model,
                                 const CharacterizationConfig &config)
    : model_(model), pageTypes_(config.pageTypes)
{
    RIF_ASSERT(config.chips > 0 && config.blocksPerChip > 0);
    RIF_ASSERT(config.pageTypes >= 1 && config.pageTypes <= kMaxPageTypes);
    Rng rng(config.seed);
    factors_.reserve(static_cast<std::size_t>(config.chips) *
                     config.blocksPerChip);
    for (int chip = 0; chip < config.chips; ++chip) {
        const double chip_factor = rng.lognormal(0.0, config.chipSigma);
        for (int blk = 0; blk < config.blocksPerChip; ++blk)
            factors_.push_back(chip_factor * model_.sampleBlockFactor(rng));
    }
}

std::vector<double>
BlockPopulation::retentionThresholds(double pe) const
{
    mRetentionFits.inc();
    // Pure per-factor computation (no RNG): trivially parallel.
    std::vector<double> out(factors_.size());
    parallelFor(factors_.size(), [&](std::size_t i) {
        double sum = 0.0;
        for (int t = 0; t < pageTypes_; ++t) {
            sum += model_.retentionUntilCapability(
                pe, static_cast<PageType>(t), factors_[i]);
        }
        out[i] = sum / pageTypes_;
    });
    return out;
}

double
proportionInDayBin(const std::vector<double> &thresholds, int day)
{
    std::uint64_t in_bin = 0;
    for (double d : thresholds) {
        if (d >= static_cast<double>(day) &&
            d < static_cast<double>(day + 1)) {
            ++in_bin;
        }
    }
    return static_cast<double>(in_bin) /
           static_cast<double>(thresholds.size());
}

ChunkSimilarity
measureChunkSimilarity(double page_rber, std::uint64_t page_bytes,
                       std::uint64_t chunk_bytes, int pages,
                       double chunk_sigma, Rng &rng)
{
    RIF_ASSERT(chunk_bytes > 0 && page_bytes % chunk_bytes == 0);
    RIF_ASSERT(page_rber > 0.0 && page_rber < 1.0);
    const auto chunks = page_bytes / chunk_bytes;
    const double chunk_bits = static_cast<double>(chunk_bytes) * 8.0;

    ChunkSimilarity out;
    out.chunkBytes = chunk_bytes;

    // One pre-forked RNG stream per page keeps the spreads independent of
    // the thread count (and of the caller's stream position afterwards,
    // which advances by exactly `pages` forks).
    const auto npages = static_cast<std::size_t>(std::max(pages, 0));
    std::vector<Rng> streams = forkStreams(rng, npages);
    std::vector<double> spreads(npages, 0.0);
    parallelFor(npages, [&](std::size_t p) {
        Rng &page_rng = streams[p];
        double rmax = 0.0, rmin = 1.0;
        for (std::uint64_t c = 0; c < chunks; ++c) {
            // Systematic per-chunk factor (process similarity keeps it
            // tight) plus binomial sampling noise, approximated by a
            // Gaussian at these error counts (hundreds per chunk).
            const double factor = page_rng.lognormal(0.0, chunk_sigma);
            const double mean_errors = page_rber * factor * chunk_bits;
            const double noisy = std::max(
                0.0,
                page_rng.gaussian(mean_errors, std::sqrt(mean_errors)));
            const double chunk_rber = noisy / chunk_bits;
            rmax = std::max(rmax, chunk_rber);
            rmin = std::min(rmin, chunk_rber);
        }
        spreads[p] = rmax > 0.0 ? (rmax - rmin) / rmax : 0.0;
    });

    double spread_sum = 0.0;
    for (double spread : spreads) {
        out.maxSpread = std::max(out.maxSpread, spread);
        spread_sum += spread;
    }
    out.meanSpread = spread_sum / std::max(pages, 1);
    return out;
}

} // namespace nand
} // namespace rif
