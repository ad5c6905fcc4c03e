/**
 * @file
 * A packed bit vector over 64-bit words with the operations the LDPC and
 * ODEAR datapaths need: bit-range XOR (which also rotates a segment, as
 * the codeword-rearrangement scheme rotates each QC-LDPC segment by its
 * circulant shift coefficient), population count and slicing.
 *
 * All bulk operations (xorRange, slice, word gathers) run word-parallel:
 * 64 bits per step regardless of alignment, so the circulant-rotation
 * syndrome identity the paper's RP datapath exploits maps onto
 * whole-word XOR + popcount on the host too.
 */

#ifndef RIF_COMMON_BITVEC_H
#define RIF_COMMON_BITVEC_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rif {

/** Fixed-length packed bit vector. */
class BitVec
{
  public:
    BitVec() = default;

    /** Construct an all-zero vector of the given bit length. */
    explicit BitVec(std::size_t nbits);

    std::size_t size() const { return nbits_; }

    /** Read bit i. */
    bool
    get(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1u;
    }

    /** Set bit i to v. */
    void
    set(std::size_t i, bool v)
    {
        const std::uint64_t mask = std::uint64_t(1) << (i & 63);
        if (v)
            words_[i >> 6] |= mask;
        else
            words_[i >> 6] &= ~mask;
    }

    /** Flip bit i. */
    void
    flip(std::size_t i)
    {
        words_[i >> 6] ^= std::uint64_t(1) << (i & 63);
    }

    /** Resize to nbits, zeroing all content (keeps capacity). */
    void reset(std::size_t nbits);

    /**
     * XOR bits [src_start, src_start + len) of `src` into bits
     * [dst_start, dst_start + len) of this vector. Word-parallel for any
     * alignment. `src` must not alias this vector.
     */
    void xorRange(std::size_t dst_start, const BitVec &src,
                  std::size_t src_start, std::size_t len);

    /** Number of set bits. */
    std::size_t popcount() const;

    /** True iff no bit is set. */
    bool isZero() const;

    /** Extract bits [start, start+len) into a new vector. */
    BitVec slice(std::size_t start, std::size_t len) const;

    /**
     * Adopt nbits from strided packed words: word i is read from
     * words[i * stride]. The gather path out of a word-interleaved
     * ldpc::CodewordBatch lane (stride = lane count).
     */
    void assignFromWords(const std::uint64_t *words, std::size_t stride,
                         std::size_t nbits);

    /**
     * Overwrite packed word w, i.e. bits [64w, 64w + 64); bits of the
     * last word beyond size() are dropped.
     */
    void
    setWord(std::size_t w, std::uint64_t bits)
    {
        words_[w] = bits;
        if (w + 1 == words_.size())
            trimTail();
    }

    /** Equality over all bits. */
    bool operator==(const BitVec &other) const;

    /** Raw word access (tail bits beyond size() are kept zero). */
    const std::vector<std::uint64_t> &words() const { return words_; }

  private:
    /** Zero any bits in the last word beyond nbits_. */
    void trimTail();

    std::size_t nbits_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace rif

#endif // RIF_COMMON_BITVEC_H
