/**
 * @file
 * Synthetic multi-chip characterization campaign, standing in for the
 * paper's study of 160 real 3D TLC chips: per-chip/per-block variation
 * factors, the Fig. 4 retention-threshold distributions, and the Fig. 12
 * intra-page chunk RBER similarity statistic.
 */

#ifndef RIF_NAND_CHARACTERIZATION_H
#define RIF_NAND_CHARACTERIZATION_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nand/cell.h"
#include "nand/rber_model.h"

namespace rif {
namespace nand {

/** Configuration of the synthetic characterization campaign. */
struct CharacterizationConfig
{
    int chips = 160;
    int blocksPerChip = 64;   ///< sampled blocks per chip
    double chipSigma = 0.06;  ///< chip-to-chip lognormal sigma
    std::uint64_t seed = 42;
    /** Page types averaged per block: 3 for the paper's TLC chips;
     *  pass pageTypesOf(cell) to characterize another cell type. */
    int pageTypes = kPageTypes;
};

/**
 * The sampled population: a flat list of block variation factors
 * (chip factor x block factor), as the paper's randomly-chosen test
 * blocks across 160 chips.
 */
class BlockPopulation
{
  public:
    BlockPopulation(const RberModel &model,
                    const CharacterizationConfig &config);

    const std::vector<double> &factors() const { return factors_; }

    /**
     * Fig. 4 statistic: for each block, the retention time (days) until
     * its RBER exceeds the capability at the given P/E count, averaged
     * over page types.
     */
    std::vector<double> retentionThresholds(double pe) const;

  private:
    const RberModel &model_;
    int pageTypes_;
    std::vector<double> factors_;
};

/**
 * Proportion of `thresholds` (retention days, as retentionThresholds
 * returns them) that lie in [day, day+1) — one cell of the paper's
 * Fig. 4 heat strip.
 */
double proportionInDayBin(const std::vector<double> &thresholds, int day);

/** Result of the Fig. 12 chunk-similarity measurement for one setting. */
struct ChunkSimilarity
{
    std::uint64_t chunkBytes = 0;
    /** max over sampled pages of (RBERmax - RBERmin) / RBERmax. */
    double maxSpread = 0.0;
    /** mean over sampled pages of the same ratio. */
    double meanSpread = 0.0;
};

/**
 * Measure intra-page chunk RBER similarity by Monte-Carlo page
 * synthesis: each page draws per-chunk systematic factors (process
 * similarity => small sigma) and binomial error counts.
 *
 * @param page_rber the page's true RBER under the tested condition
 * @param page_bytes page size (16 KiB)
 * @param chunk_bytes chunk size to compare (4/2/1 KiB)
 * @param pages number of pages to synthesize
 * @param chunk_sigma systematic per-chunk RBER sigma (process similarity)
 */
ChunkSimilarity measureChunkSimilarity(double page_rber,
                                       std::uint64_t page_bytes,
                                       std::uint64_t chunk_bytes, int pages,
                                       double chunk_sigma, Rng &rng);

} // namespace nand
} // namespace rif

#endif // RIF_NAND_CHARACTERIZATION_H
