/**
 * @file
 * Random payloads and binary-symmetric-channel error injection on packed
 * codewords, used by the Monte-Carlo capability and RP-accuracy
 * experiments and the functional pipeline.
 */

#ifndef RIF_LDPC_CHANNEL_H
#define RIF_LDPC_CHANNEL_H

#include <cstddef>

#include "common/bitvec.h"
#include "common/rng.h"

namespace rif {
namespace ldpc {

/**
 * Generate k random data bits: one rng.next() per 64 bits, bit b of the
 * i-th draw at position 64i + b; a k that is not a multiple of 64 takes
 * its tail from the low bits of one further draw.
 */
BitVec randomData(std::size_t k, Rng &rng);

/**
 * Fill d (whose size fixes the bit count) with random data in place —
 * same draw sequence and bits as randomData, no allocation, so hot
 * Monte-Carlo loops can reuse one buffer per worker.
 */
void randomDataInto(BitVec &d, Rng &rng);

/**
 * Flip each bit independently with probability rber (a BSC). Returns the
 * number of bits actually flipped.
 */
std::size_t injectErrors(BitVec &word, double rber, Rng &rng);

/**
 * Flip exactly `count` distinct bits chosen uniformly (fixed-weight error
 * pattern, useful for controlled sweeps).
 */
void injectExactErrors(BitVec &word, std::size_t count, Rng &rng);

} // namespace ldpc
} // namespace rif

#endif // RIF_LDPC_CHANNEL_H
