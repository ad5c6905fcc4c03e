/**
 * @file
 * Page data randomizer. Modern NAND scrambles every page with a
 * per-page-seeded LFSR sequence before programming so cell states are
 * uniformly distributed regardless of host data — the property both the
 * Swift-Read ones-count heuristic and the ODEAR chunk-based prediction
 * rely on.
 */

#ifndef RIF_NAND_RANDOMIZER_H
#define RIF_NAND_RANDOMIZER_H

#include <cstdint>

#include "common/bitvec.h"

namespace rif {
namespace nand {

/** Fibonacci LFSR (x^64 + x^63 + x^61 + x^60 + 1) keystream scrambler. */
class Randomizer
{
  public:
    /** @param page_seed unique per (block, page) scramble seed */
    explicit Randomizer(std::uint64_t page_seed);

    /** XOR the keystream over the data (involution: applying twice
     *  restores the original). */
    void apply(BitVec &data) const;

  private:
    std::uint64_t seed_;
};

} // namespace nand
} // namespace rif

#endif // RIF_NAND_RANDOMIZER_H
