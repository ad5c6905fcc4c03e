#include "common/bitvec.h"

#include <algorithm>

#include "common/logging.h"
#include "common/simd.h"

namespace rif {

// The packed storage is consumed as raw 64-bit lanes by the simd::
// kernels (and, batch-interleaved, by ldpc::CodewordBatch).
static_assert(sizeof(std::uint64_t) == 8 && alignof(std::uint64_t) == 8,
              "BitVec packed storage must be 8-byte-aligned 64-bit words");

namespace {

/** XOR one sub-word chunk (<= 64 bits, not crossing a dst word). */
void
xorStep(std::uint64_t *dst, std::size_t dpos, const std::uint64_t *src,
        std::size_t spos, std::size_t chunk)
{
    const std::size_t db = dpos & 63;
    const std::size_t sw = spos >> 6;
    const std::size_t sb = spos & 63;
    std::uint64_t bits = src[sw] >> sb;
    if (sb != 0 && sb + chunk > 64)
        bits |= src[sw + 1] << (64 - sb);
    if (chunk < 64)
        bits &= (std::uint64_t(1) << chunk) - 1;
    dst[dpos >> 6] ^= bits << db;
}

/**
 * XOR `len` bits of `src` starting at bit `spos` into `dst` starting at
 * bit `dpos`. Word-parallel: each step produces up to one destination
 * word. The ranges must not overlap between aliasing buffers.
 */
void
xorBitsRaw(std::uint64_t *dst, std::size_t dpos, const std::uint64_t *src,
           std::size_t spos, std::size_t len)
{
    // Whole-word fast path for mutually aligned ranges (the common case
    // when the circulant dimension is a multiple of 64 and the shift is
    // zero, e.g. parity segments and the rearranged on-die datapath).
    if (((dpos | spos) & 63) == 0 && len >= 64) {
        const std::size_t nwords = len >> 6;
        simd::xorWords(dst + (dpos >> 6), src + (spos >> 6), nwords);
        dpos += nwords << 6;
        spos += nwords << 6;
        len &= 63;
    }
    // Head: one partial chunk aligns dpos to a word boundary.
    if (len > 0 && (dpos & 63) != 0) {
        const std::size_t chunk =
            std::min<std::size_t>(64 - (dpos & 63), len);
        xorStep(dst, dpos, src, spos, chunk);
        dpos += chunk;
        spos += chunk;
        len -= chunk;
    }
    // Body: dst-aligned whole words, funnel-shifted out of src. Word w
    // needs src bits [spos + 64w, spos + 64w + 64), i.e. src words
    // sw + w and (when sb != 0) sw + w + 1 — the same accesses the
    // word-at-a-time loop makes.
    if (len >= 64) {
        const std::size_t nwords = len >> 6;
        const std::size_t sw = spos >> 6;
        const unsigned sb = static_cast<unsigned>(spos & 63);
        simd::xorFunnelWords(dst + (dpos >> 6), src + sw,
                             sb != 0 ? src + sw + 1 : nullptr, sb,
                             ~std::uint64_t(0), 0, nwords);
        dpos += nwords << 6;
        spos += nwords << 6;
        len &= 63;
    }
    // Tail: at most one sub-word chunk (dpos is word-aligned here).
    if (len > 0)
        xorStep(dst, dpos, src, spos, len);
}

} // namespace

BitVec::BitVec(std::size_t nbits)
    : nbits_(nbits), words_((nbits + 63) / 64, 0)
{
}

void
BitVec::reset(std::size_t nbits)
{
    nbits_ = nbits;
    words_.assign((nbits + 63) / 64, 0);
}

void
BitVec::xorRange(std::size_t dst_start, const BitVec &src,
                 std::size_t src_start, std::size_t len)
{
    RIF_ASSERT(dst_start + len <= nbits_);
    RIF_ASSERT(src_start + len <= src.nbits_);
    if (len == 0)
        return;
    xorBitsRaw(words_.data(), dst_start, src.words_.data(), src_start, len);
}

std::size_t
BitVec::popcount() const
{
    return simd::popcountWords(words_.data(), words_.size());
}

bool
BitVec::isZero() const
{
    for (std::uint64_t w : words_)
        if (w != 0)
            return false;
    return true;
}

BitVec
BitVec::slice(std::size_t start, std::size_t len) const
{
    RIF_ASSERT(start + len <= nbits_);
    BitVec out(len);
    out.xorRange(0, *this, start, len);
    return out;
}

void
BitVec::assignFromWords(const std::uint64_t *words, std::size_t stride,
                        std::size_t nbits)
{
    nbits_ = nbits;
    words_.resize((nbits + 63) / 64);
    for (std::size_t w = 0; w < words_.size(); ++w)
        words_[w] = words[w * stride];
    trimTail();
}

bool
BitVec::operator==(const BitVec &other) const
{
    return nbits_ == other.nbits_ && words_ == other.words_;
}

void
BitVec::trimTail()
{
    const std::size_t extra = nbits_ & 63;
    if (extra != 0 && !words_.empty())
        words_.back() &= (std::uint64_t(1) << extra) - 1;
}

} // namespace rif
