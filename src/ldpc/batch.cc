#include "ldpc/batch.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "ldpc/channel.h"

namespace rif {
namespace ldpc {

namespace {

const metrics::Distribution mBatchSize{
    "ldpc.batch.size", "lanes", "codeword lanes per formed decode batch"};
const metrics::Counter mBatchFull{"ldpc.batch.flush_reason.full", "ops",
                                  "batches flushed at full lane capacity"};
const metrics::Counter mBatchTail{
    "ldpc.batch.flush_reason.tail", "ops",
    "partial batches flushed as the tail of a trial range"};

} // namespace

void
noteBatchFormed(std::size_t lanes, std::size_t capacity)
{
    mBatchSize.observe(static_cast<double>(lanes));
    if (lanes >= capacity)
        mBatchFull.inc();
    else
        mBatchTail.inc();
}

void
forEachTrialChunk(const QcLdpcCode &code, const std::vector<double> &rbers,
                  std::size_t trials, std::uint64_t seed,
                  const std::function<void(const TrialChunk &)> &body)
{
    constexpr std::size_t kLanes = MinSumDecoder::kBatchLanes;
    const std::size_t chunks = (trials + kLanes - 1) / kLanes;
    std::vector<Rng> streams = forkStreams(seed, rbers.size() * trials);
    struct Buffers
    {
        BitVec data; ///< reused payload, k bits
        std::array<BitVec, kLanes> words;
        std::array<const BitVec *, kLanes> ptrs;
    };
    std::vector<Buffers> buffers(
        static_cast<std::size_t>(globalThreadCount()));
    for (Buffers &b : buffers) {
        b.data = BitVec(code.params().k());
        for (std::size_t l = 0; l < kLanes; ++l)
            b.ptrs[l] = &b.words[l];
    }
    parallelForWorker(rbers.size() * chunks, [&](std::size_t i, int worker) {
        Buffers &b = buffers[static_cast<std::size_t>(worker)];
        TrialChunk chunk;
        chunk.point = i / chunks;
        chunk.first = i % chunks * kLanes;
        chunk.lanes = std::min(kLanes, trials - chunk.first);
        chunk.worker = worker;
        chunk.words = b.ptrs.data();
        for (std::size_t l = 0; l < chunk.lanes; ++l) {
            Rng &rng = streams[chunk.point * trials + chunk.first + l];
            randomDataInto(b.data, rng);
            b.words[l] = code.encode(b.data);
            injectErrors(b.words[l], rbers[chunk.point], rng);
        }
        body(chunk);
        noteBatchFormed(chunk.lanes, kLanes);
    });
}

namespace {

/**
 * XOR one sub-word chunk (<= 64 bits, not crossing a destination word)
 * across all L lanes of the interleaved storage. The lane-strided mirror
 * of bitvec.cc's xorStep: lane l's source words sw and sw + 1 sit at
 * src + sw*L + l and src + (sw+1)*L + l, so one funnel call of length L
 * covers every lane.
 */
void
stepLanes(std::uint64_t *dst, std::size_t dpos, const std::uint64_t *src,
          std::size_t spos, std::size_t chunk, std::size_t L)
{
    const unsigned db = static_cast<unsigned>(dpos & 63);
    const std::size_t sw = spos >> 6;
    const unsigned sb = static_cast<unsigned>(spos & 63);
    const std::uint64_t mask = chunk < 64
                                   ? (std::uint64_t(1) << chunk) - 1
                                   : ~std::uint64_t(0);
    const bool high = sb != 0 && sb + chunk > 64;
    simd::xorFunnelWords(dst + (dpos >> 6) * L, src + sw * L,
                         high ? src + (sw + 1) * L : nullptr, sb, mask, db,
                         L);
}

/**
 * The batched analog of bitvec.cc's xorBitsRaw over word-interleaved
 * storage with L lanes: identical phase structure (aligned fast path,
 * head partial, funnel body, tail partial), each phase one kernel call
 * covering all lanes at once.
 */
void
batchXorBits(std::uint64_t *dst, std::size_t dpos, const std::uint64_t *src,
             std::size_t spos, std::size_t len, std::size_t L)
{
    if (((dpos | spos) & 63) == 0 && len >= 64) {
        const std::size_t nwords = len >> 6;
        simd::xorWords(dst + (dpos >> 6) * L, src + (spos >> 6) * L,
                       nwords * L);
        dpos += nwords << 6;
        spos += nwords << 6;
        len &= 63;
    }
    if (len > 0 && (dpos & 63) != 0) {
        const std::size_t chunk =
            std::min<std::size_t>(64 - (dpos & 63), len);
        stepLanes(dst, dpos, src, spos, chunk, L);
        dpos += chunk;
        spos += chunk;
        len -= chunk;
    }
    if (len >= 64) {
        const std::size_t nwords = len >> 6;
        const std::size_t sw = spos >> 6;
        const unsigned sb = static_cast<unsigned>(spos & 63);
        // Interleaving makes "next source word, same lane" a fixed +L
        // offset, so the whole body across all lanes is one funnel call
        // of nwords*L elements.
        simd::xorFunnelWords(dst + (dpos >> 6) * L, src + sw * L,
                             sb != 0 ? src + (sw + 1) * L : nullptr, sb,
                             ~std::uint64_t(0), 0, nwords * L);
        dpos += nwords << 6;
        spos += nwords << 6;
        len &= 63;
    }
    if (len > 0)
        stepLanes(dst, dpos, src, spos, len, L);
}

} // namespace

void
CodewordBatch::reset(std::size_t nbits, std::size_t lanes)
{
    RIF_ASSERT(lanes > 0);
    nbits_ = nbits;
    lanes_ = lanes;
    words_.assign(wordsPerLane() * lanes, 0);
}

void
CodewordBatch::setLane(std::size_t lane, const BitVec &v)
{
    RIF_ASSERT(lane < lanes_ && v.size() == nbits_);
    const auto &src = v.words();
    for (std::size_t w = 0; w < src.size(); ++w)
        words_[w * lanes_ + lane] = src[w];
}

void
CodewordBatch::extractLane(std::size_t lane, BitVec &out) const
{
    RIF_ASSERT(lane < lanes_);
    out.assignFromWords(words_.data() + lane, lanes_, nbits_);
}

void
CodewordBatch::xorRange(std::size_t dst_start, const CodewordBatch &src,
                        std::size_t src_start, std::size_t len)
{
    RIF_ASSERT(lanes_ == src.lanes_);
    RIF_ASSERT(dst_start + len <= nbits_);
    RIF_ASSERT(src_start + len <= src.nbits_);
    if (len == 0)
        return;
    batchXorBits(words_.data(), dst_start, src.words_.data(), src_start,
                 len, lanes_);
}

void
CodewordBatch::popcountLanes(std::size_t *weights) const
{
    for (std::size_t l = 0; l < lanes_; ++l)
        weights[l] = 0;
    const std::uint64_t *p = words_.data();
    const std::size_t wpl = wordsPerLane();
    for (std::size_t w = 0; w < wpl; ++w, p += lanes_)
        for (std::size_t l = 0; l < lanes_; ++l)
            weights[l] += static_cast<std::size_t>(std::popcount(p[l]));
}

void
xorRowSyndromeBatch(const QcLdpcCode &code, const CodewordBatch &word,
                    int block_row, CodewordBatch &acc,
                    std::size_t acc_offset)
{
    const auto &params = code.params();
    const int d = params.dataBlocks();
    const auto t = static_cast<std::size_t>(params.circulant);
    const std::size_t k = params.k();
    const int i = block_row;

    // Same rotation-wrap split as QcLdpcCode::xorRowSyndrome, each range
    // covering all lanes in one pass.
    for (int j = 0; j < d; ++j) {
        const auto c = static_cast<std::size_t>(code.shift(i, j));
        const std::size_t seg = static_cast<std::size_t>(j) * t;
        acc.xorRange(acc_offset, word, seg + c, t - c);
        if (c != 0)
            acc.xorRange(acc_offset + t - c, word, seg, c);
    }
    acc.xorRange(acc_offset, word, k + static_cast<std::size_t>(i) * t, t);
    if (i > 0) {
        acc.xorRange(acc_offset, word,
                     k + static_cast<std::size_t>(i - 1) * t, t);
    }
}

void
syndromeBatchInto(const QcLdpcCode &code, const CodewordBatch &word,
                  CodewordBatch &out)
{
    const auto &params = code.params();
    RIF_ASSERT(word.bits() == params.n());
    const auto t = static_cast<std::size_t>(params.circulant);
    out.reset(params.m(), word.lanes());
    for (int i = 0; i < params.blockRows; ++i)
        xorRowSyndromeBatch(code, word, i, out,
                            static_cast<std::size_t>(i) * t);
}

void
syndromeWeightBatch(const QcLdpcCode &code, const CodewordBatch &word,
                    CodewordBatch &scratch, std::size_t *weights)
{
    syndromeBatchInto(code, word, scratch);
    scratch.popcountLanes(weights);
}

void
prunedSyndromeWeightBatch(const QcLdpcCode &code, const CodewordBatch &word,
                          CodewordBatch &scratch, std::size_t *weights)
{
    const auto &params = code.params();
    RIF_ASSERT(word.bits() == params.n());
    scratch.reset(static_cast<std::size_t>(params.circulant), word.lanes());
    xorRowSyndromeBatch(code, word, 0, scratch, 0);
    scratch.popcountLanes(weights);
}

float
BatchDecodeWorkspace::llrMagnitude(double channel_rber)
{
    if (channel_rber != cachedRber_) {
        const double p = std::clamp(channel_rber, 1e-6, 0.49);
        cachedRber_ = channel_rber;
        cachedLlr_ = static_cast<float>(std::log((1.0 - p) / p));
    }
    return cachedLlr_;
}

} // namespace ldpc
} // namespace rif
