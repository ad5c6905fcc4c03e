/**
 * @file
 * The single SIMD dispatch point for the word-parallel bit kernels.
 * Three primitives cover every inner loop of the LDPC/ODEAR datapath:
 *
 *  - xorWords:       dst[i] ^= src[i]                (aligned bulk XOR)
 *  - popcountWords:  sum of std::popcount over a word range
 *  - xorFunnelWords: dst[i] ^= (((a[i] >> sb) | (b[i] << (64 - sb)))
 *                               & mask) << db        (the funnel-shift
 *                    body of BitVec::xorRange and the batched circulant
 *                    rotations)
 *
 * plus the two float passes of the 8-lane batched min-sum decoder
 * (minsumCheckPass8 / minsumVarPass8). They keep no per-edge message
 * array: each check holds its compressed two-min state (MinSumCheck8,
 * the eight lanes of one field in one 256-bit vector), each edge one
 * sign byte, each variable its eight posterior sums, and every message
 * is rebuilt from these where it is used. Both passes walk the checks
 * and their edges in order, so each check's state is loaded once per
 * pass.
 *
 * Builds with RIF_SIMD=ON (the default) compile an AVX2 variant of each
 * primitive with a per-function target attribute — no global -mavx2, so
 * the binary still runs on pre-AVX2 hosts — and select it once at
 * startup via cpuid. RIF_SIMD=OFF builds contain only the portable
 * word-wise loops, which is the scalar-fallback CI leg. Either way the
 * results are bit-identical: the integer kernels trivially so, and the
 * float kernels perform the exact same IEEE operations in the same
 * order as their scalar fallbacks (sign flips are sign-bit XORs, |x| a
 * sign-bit AND, no FMA contraction). The min-sum passes also match the
 * single-word MinSumDecoder::decode bit for bit; DESIGN.md §5f gives
 * the argument.
 *
 * The AVX2 passes use no blend. Each rebuilds c2v in XOR form from
 * base = mag1 ^ sign and delta = mag1 ^ mag2, hoisted per check:
 * c2v = base ^ laneSign ^ (e == minEdge ? delta : 0), with e a running
 * vector of the edge index. The check pass tracks minEdge as an unsigned
 * max over the improving edge indices and accumulates the sign product
 * as the XOR of the v2c < 0 masks, cut to the sign bit once per check.
 * Each of the three is exact (DESIGN.md §5f).
 *
 * A lane sign mask (bit l of a sign byte as lane l's float sign bit) is
 * one aligned load from a constant 256-row table, and the variable pass
 * packs its hard decisions with movemasks: one
 * movemask_ps of total < 0 per variable gives a byte of lane bits, and a
 * 64-bit shift plus movemask_epi8 per lane turns 32 such bytes into 32
 * bits of that lane's word. The test is total < 0, not the sign bit, so
 * -0.0f packs as 0 exactly as in the scalar bit-by-bit pack.
 */

#ifndef RIF_COMMON_SIMD_H
#define RIF_COMMON_SIMD_H

#include <cstddef>
#include <cstdint>

#ifndef RIF_SIMD_ENABLED
#define RIF_SIMD_ENABLED 1
#endif

namespace rif {
namespace simd {

/** Active backend, for logs and tests: "avx2" or "scalar". */
const char *backendName();

/** dst[i] ^= src[i] for i in [0, n). Ranges must not overlap. */
void xorWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n);

/** Total population count of words [0, n). */
std::size_t popcountWords(const std::uint64_t *p, std::size_t n);

/**
 * The funnel-shift XOR body shared by BitVec::xorRange and the batched
 * circulant kernels:
 *
 *   dst[i] ^= (((a[i] >> sb) | (b ? b[i] << (64 - sb) : 0)) & mask) << db
 *
 * for i in [0, n). Pass b == nullptr when sb == 0 (a shift by 64 would
 * be undefined); callers guarantee dst does not alias a or b.
 */
void xorFunnelWords(std::uint64_t *dst, const std::uint64_t *a,
                    const std::uint64_t *b, unsigned sb, std::uint64_t mask,
                    unsigned db, std::size_t n);

/** Sign bit of an IEEE single, as a lane mask. */
inline constexpr std::uint32_t kFloatSignBit = 0x80000000u;

/**
 * Compressed state of one check node of the 8-lane normalized min-sum
 * decoder (lane l in element [l]). Together with the sign byte its edge
 * keeps, it gives every check-to-variable message of the check:
 *
 *   c2v(e, l) = (e == minEdge[l] ? mag2[l] : mag1[l]), sign bit flipped
 *               by sign[l] ^ (bit l of the edge's v2c sign byte)
 *
 * which, as bits, is (mag1 ^ sign) ^ (edge sign bit) ^ (e == minEdge ?
 * mag1 ^ mag2 : 0): the form the AVX2 kernels evaluate, ±0 included.
 * mag1/mag2 carry the normalization already (alpha * min1, alpha * min2:
 * alpha * s * mag with s = +-1 equals +-(alpha * mag) exactly). minEdge
 * is the last edge, in edge order, whose |v2c| was strictly below every
 * earlier one, or the check's first edge if none was below 1e30. An
 * all-zero state encodes "every message is +0", the state before the
 * first iteration.
 */
struct MinSumCheck8
{
    float mag1[8];            ///< alpha * smallest |v2c|
    float mag2[8];            ///< alpha * second-smallest |v2c|
    std::uint32_t minEdge[8]; ///< edge holding the smallest |v2c|
    std::uint32_t sign[8];    ///< product of the v2c signs (kFloatSignBit)
};

/**
 * One min-sum check-node pass on compressed state. Lane l of variable
 * v's posterior is total[v * 8 + l]; bit l of edge_sign[e] is the sign
 * (v2c < 0) of lane l's last v2c message on edge e. For every check chk
 * in [0, m), visiting its edges e in [check_offsets[chk],
 * check_offsets[chk + 1]) in order, the kernel
 *
 *   - rebuilds last iteration's c2v(e) from checks[chk] and edge_sign[e],
 *   - forms v2c = total[edge_var[e]] - c2v(e) and stores its sign bits
 *     back into edge_sign[e],
 *   - folds |v2c| into the new two-min state with the ladder
 *     min2 = min(max(mag, min1), min2), min1 = min(mag, min1), moving
 *     minEdge on a strict mag < min1,
 *
 * then overwrites checks[chk] with the new state. The float sequence
 * is the one MinSumDecoder::decode evaluates, so every lane matches it
 * bit for bit.
 */
void minsumCheckPass8(const std::uint32_t *check_offsets, std::size_t m,
                      const std::uint32_t *edge_var, const float *total,
                      MinSumCheck8 *checks, std::uint8_t *edge_sign,
                      float alpha);

/**
 * One min-sum variable-node pass on compressed state: for every
 * variable v in [0, n) and lane l,
 *
 *   total[v * 8 + l] = chan + c2v(e_0) + c2v(e_1) + ...
 *
 * left to right over v's edges in increasing edge order, the order in
 * which MinSumDecoder::decode adds them (its variable-major edge lists
 * are sorted by edge). chan is -llr where bit l of chan_sign[v] is set,
 * +llr otherwise. The kernel gets there check-major, loading each
 * check's state once: it resets every total to chan, then visits the
 * checks and their edges e in order (same offsets as minsumCheckPass8)
 * and adds c2v(e), rebuilt from checks[chk] and edge_sign[e], to
 * total[edge_var[e]]. Last, the hard decision total < 0 is packed into
 * the word-interleaved hard_words (lane l of word w at
 * hard_words[w * 8 + l], tail bits zero). The test is a float compare,
 * so a posterior of -0.0f gives 0. The AVX2 kernel packs 64 variables
 * at a time with movemasks (see the file comment); the scalar one bit
 * by bit.
 */
void minsumVarPass8(const std::uint8_t *chan_sign, float llr, std::size_t n,
                    const std::uint32_t *check_offsets, std::size_t m,
                    const std::uint32_t *edge_var,
                    const MinSumCheck8 *checks,
                    const std::uint8_t *edge_sign, float *total,
                    std::uint64_t *hard_words);

} // namespace simd
} // namespace rif

#endif // RIF_COMMON_SIMD_H
