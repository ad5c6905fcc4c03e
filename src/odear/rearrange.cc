#include "odear/rearrange.h"

#include "common/logging.h"
#include "ldpc/batch.h"

namespace rif {
namespace odear {

CodewordRearranger::CodewordRearranger(const ldpc::QcLdpcCode &code)
    : code_(code)
{
}

namespace {

/**
 * Copy segment j of `in` into segment j of the zeroed `out`, cyclically
 * rotated left by k: two word-parallel XOR ranges, no temporaries.
 */
void
rotateSegmentInto(BitVec &out, const BitVec &in, std::size_t seg,
                  std::size_t t, std::size_t k)
{
    out.xorRange(seg, in, seg + k, t - k);
    if (k != 0)
        out.xorRange(seg + t - k, in, seg, k);
}

} // namespace

BitVec
CodewordRearranger::toFlashLayout(const BitVec &codeword) const
{
    const auto &p = code_.params();
    RIF_ASSERT(codeword.size() == p.n());
    const auto t = static_cast<std::size_t>(p.circulant);
    const int d = p.dataBlocks();

    BitVec out(p.n());
    for (int j = 0; j < p.blockCols; ++j) {
        // Data segments rotate by their block-row-0 shift; the first
        // parity segment is already an identity (shift 0) and the
        // remaining parity segments do not participate in block row 0.
        const std::size_t k =
            j < d ? static_cast<std::size_t>(code_.shift(0, j)) : 0;
        rotateSegmentInto(out, codeword, static_cast<std::size_t>(j) * t,
                          t, k);
    }
    return out;
}

BitVec
CodewordRearranger::toControllerLayout(const BitVec &flash_word) const
{
    const auto &p = code_.params();
    RIF_ASSERT(flash_word.size() == p.n());
    const auto t = static_cast<std::size_t>(p.circulant);
    const int d = p.dataBlocks();

    BitVec out(p.n());
    for (int j = 0; j < p.blockCols; ++j) {
        // Inverse rotation: right by k is left by t - k.
        const auto c =
            j < d ? static_cast<std::size_t>(code_.shift(0, j)) : 0;
        rotateSegmentInto(out, flash_word, static_cast<std::size_t>(j) * t,
                          t, c == 0 ? 0 : t - c);
    }
    return out;
}

std::size_t
CodewordRearranger::onDieSyndromeWeight(const BitVec &flash_word) const
{
    const auto &p = code_.params();
    RIF_ASSERT(flash_word.size() == p.n());
    const auto t = static_cast<std::size_t>(p.circulant);
    const int d = p.dataBlocks();

    // XOR of the d data segments plus the first parity segment — the
    // hardware datapath of Fig. 16 (segment reg -> XOR -> weight counter).
    static thread_local BitVec acc;
    acc.reset(t);
    for (int j = 0; j <= d; ++j)
        acc.xorRange(0, flash_word, static_cast<std::size_t>(j) * t, t);
    return acc.popcount();
}

void
CodewordRearranger::onDieSyndromeWeightBatch(const ldpc::CodewordBatch &flash,
                                             ldpc::CodewordBatch &scratch,
                                             std::size_t *weights) const
{
    const auto &p = code_.params();
    RIF_ASSERT(flash.bits() == p.n());
    const auto t = static_cast<std::size_t>(p.circulant);
    const int d = p.dataBlocks();

    // Same segment-XOR datapath as onDieSyndromeWeight, one interleaved
    // pass per segment covering every lane at once.
    scratch.reset(t, flash.lanes());
    for (int j = 0; j <= d; ++j)
        scratch.xorRange(0, flash, static_cast<std::size_t>(j) * t, t);
    scratch.popcountLanes(weights);
}

} // namespace odear
} // namespace rif
