/**
 * @file
 * Quasi-cyclic LDPC code construction matching the paper's ECC substrate:
 * H is an r x c block matrix of t x t circulants (the paper uses r = 4,
 * c = 36, t = 1024, i.e. a 4-KiB-payload rate-8/9 code). The last r block
 * columns form a lower-bidiagonal identity structure so encoding is
 * linear-time; the first c - r block columns are random circulants chosen
 * with a girth-4 avoidance check.
 *
 * Codewords are packed BitVecs everywhere, the same format the on-die
 * page buffer and the off-chip decoder consume. All hot kernels (encode,
 * syndrome, syndrome weights, isCodeword) are word-parallel: a circulant
 * Q(C) applied to a t-bit segment is exactly a cyclic rotation by C, so
 * block row i's syndrome is the XOR of rotated data segments plus the
 * identity parity segments — the same identity the paper's on-die
 * rearrangement datapath exploits, here evaluated 64 bits per operation.
 * The original per-edge implementations are kept as reference* methods
 * for equivalence testing.
 */

#ifndef RIF_LDPC_CODE_H
#define RIF_LDPC_CODE_H

#include <cstdint>
#include <vector>

#include "common/bitvec.h"

namespace rif {
namespace ldpc {

/** Structural parameters of a QC-LDPC code. */
struct CodeParams
{
    int blockRows = 4;   ///< r: block rows (parity blocks)
    int blockCols = 36;  ///< c: block columns (codeword blocks)
    int circulant = 1024; ///< t: circulant dimension
    std::uint64_t seed = 0x51f0c0de; ///< shift-selection seed

    int dataBlocks() const { return blockCols - blockRows; }
    std::size_t n() const
    {
        return static_cast<std::size_t>(blockCols) * circulant;
    }
    std::size_t k() const
    {
        return static_cast<std::size_t>(dataBlocks()) * circulant;
    }
    std::size_t m() const
    {
        return static_cast<std::size_t>(blockRows) * circulant;
    }
};

/** The paper's full-size code: r=4, c=36, t=1024 (N=36864, K=32768). */
CodeParams paperCode();

/** A small code for unit tests (t=64) with the same structure. */
CodeParams testCode();

/**
 * A QC-LDPC code instance: shift coefficients, encoder, syndrome
 * computation and check-node adjacency for the decoders.
 *
 * Circulant convention: Q(C) is the t x t identity cyclically shifted
 * right by C, i.e. entry (a, b) = 1 iff b == (a + C) mod t.
 */
class QcLdpcCode
{
  public:
    explicit QcLdpcCode(const CodeParams &params);

    const CodeParams &params() const { return params_; }

    /** Shift coefficient of the data circulant at (block row i, col j). */
    int shift(int i, int j) const;

    /**
     * Encode k data bits into an n-bit codeword (data first, then r
     * parity blocks computed by back-substitution).
     */
    BitVec encode(const BitVec &data) const;

    /** Full syndrome (m bits) of an n-bit word. */
    BitVec syndrome(const BitVec &word) const;

    /** Full syndrome into a caller-owned buffer (no alloc). */
    void syndromeInto(const BitVec &word, BitVec &out) const;

    /** Hamming weight of the full syndrome. */
    std::size_t syndromeWeight(const BitVec &word) const;

    /**
     * Weight of the first t syndromes only (block row 0) — the pruned
     * computation the ODEAR RP module performs.
     */
    std::size_t prunedSyndromeWeight(const BitVec &word) const;

    /**
     * True iff the word satisfies every parity check. Early exit: block
     * rows are evaluated one at a time and the first non-zero row
     * syndrome word aborts the scan.
     */
    bool isCodeword(const BitVec &word) const;

    /**
     * isCodeword with a caller-owned t-bit row accumulator so steady-
     * state callers (decoder iteration loops) allocate nothing.
     */
    bool isCodeword(const BitVec &word, BitVec &row_scratch) const;

    /**
     * Per-edge reference implementations of the kernels above. Slow;
     * retained for the word-parallel/per-edge equivalence tests.
     */
    BitVec referenceEncode(const BitVec &data) const;
    BitVec referenceSyndrome(const BitVec &word) const;

    /** Variable indices participating in check m, sorted by check. */
    const std::vector<std::uint32_t> &checkAdjacency() const
    {
        return edgeVar_;
    }

    /** Start offset of check m's edges inside checkAdjacency(). */
    const std::vector<std::uint32_t> &checkOffsets() const
    {
        return chkStart_;
    }

    /** Total number of edges (ones in H). */
    std::size_t edgeCount() const { return edgeVar_.size(); }

  private:
    void chooseShifts();
    void buildAdjacency();

    /**
     * XOR block row i's syndrome (t bits) into `acc` at bit offset
     * `acc_offset`: rotated data segments plus identity parity segments.
     */
    void xorRowSyndrome(const BitVec &word, int i, BitVec &acc,
                        std::size_t acc_offset) const;

    CodeParams params_;
    /** shifts_[i * dataBlocks + j] for data block columns. */
    std::vector<int> shifts_;
    std::vector<std::uint32_t> edgeVar_;
    std::vector<std::uint32_t> chkStart_;
};

} // namespace ldpc
} // namespace rif

#endif // RIF_LDPC_CODE_H
