/**
 * @file
 * Batched (structure-of-arrays) LDPC kernels: N packed codewords held
 * word-interleaved so that every circulant-rotation XOR range of the
 * syndrome identity is one long contiguous pass over all N lanes instead
 * of N short strided ones. The single-codeword kernels in code.h /
 * decoder.h stay as the reference oracles; the batched variants are
 * required (and tested) to produce bit-identical results lane by lane.
 *
 * Layout: word w of lane l lives at words()[w * lanes() + l]. "Next
 * source word, same lane" is therefore a fixed +lanes() offset, which is
 * exactly the shape simd::xorFunnelWords consumes — an unaligned batched
 * XOR range runs the same funnel-shift kernel as BitVec::xorRange, just
 * over lanes()x more words per call.
 */

#ifndef RIF_LDPC_BATCH_H
#define RIF_LDPC_BATCH_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bitvec.h"
#include "common/simd.h"
#include "ldpc/code.h"
#include "ldpc/decoder.h"

namespace rif {
namespace ldpc {

/** N equal-length packed bit vectors, word-interleaved (SoA). */
class CodewordBatch
{
  public:
    CodewordBatch() = default;
    CodewordBatch(std::size_t nbits, std::size_t lanes)
    {
        reset(nbits, lanes);
    }

    /** Resize to nbits x lanes and zero all content (keeps capacity). */
    void reset(std::size_t nbits, std::size_t lanes);

    std::size_t bits() const { return nbits_; }
    std::size_t lanes() const { return lanes_; }
    std::size_t wordsPerLane() const { return (nbits_ + 63) / 64; }

    /** Scatter a packed vector (of bits() bits) into one lane. */
    void setLane(std::size_t lane, const BitVec &v);

    /** Gather one lane back out into a packed vector. */
    void extractLane(std::size_t lane, BitVec &out) const;

    /** Read a single bit of one lane. */
    bool
    get(std::size_t lane, std::size_t bit) const
    {
        return (words_[(bit >> 6) * lanes_ + lane] >> (bit & 63)) & 1u;
    }

    /**
     * XOR bits [src_start, src_start + len) of every lane of `src` into
     * bits [dst_start, dst_start + len) of the matching lane of this
     * batch. The batched analog of BitVec::xorRange: same alignment
     * handling, one kernel call per phase covering all lanes. `src` must
     * have the same lane count and must not alias this batch.
     */
    void xorRange(std::size_t dst_start, const CodewordBatch &src,
                  std::size_t src_start, std::size_t len);

    /** Per-lane population count into weights[0 .. lanes()). */
    void popcountLanes(std::size_t *weights) const;

    /** Raw interleaved words (tail bits beyond bits() are kept zero). */
    std::uint64_t *words() { return words_.data(); }
    const std::uint64_t *words() const { return words_.data(); }

  private:
    std::size_t nbits_ = 0;
    std::size_t lanes_ = 0;
    std::vector<std::uint64_t> words_;
};

/**
 * XOR block row i's syndrome (t bits per lane) into `acc` at bit offset
 * `acc_offset` — the batched mirror of QcLdpcCode::xorRowSyndrome,
 * using the same rotation-wrap split per circulant.
 */
void xorRowSyndromeBatch(const QcLdpcCode &code, const CodewordBatch &word,
                         int block_row, CodewordBatch &acc,
                         std::size_t acc_offset);

/** Full m-bit syndrome of every lane (out is reset to m x lanes). */
void syndromeBatchInto(const QcLdpcCode &code, const CodewordBatch &word,
                       CodewordBatch &out);

/**
 * Per-lane full syndrome weight. `scratch` is the caller-owned syndrome
 * accumulator (grown on first use, then reused: zero steady-state
 * allocation); weights[] receives lanes() values.
 */
void syndromeWeightBatch(const QcLdpcCode &code, const CodewordBatch &word,
                         CodewordBatch &scratch, std::size_t *weights);

/**
 * Per-lane pruned (block row 0 only) syndrome weight — the batched form
 * of the ODEAR RP module's on-die computation.
 */
void prunedSyndromeWeightBatch(const QcLdpcCode &code,
                               const CodewordBatch &word,
                               CodewordBatch &scratch, std::size_t *weights);

/**
 * Record one formed batch in the active metrics collector (no-op
 * without one): the `ldpc.batch.size` lane-count distribution plus the
 * `ldpc.batch.flush_reason.full` / `.tail` counters, depending on
 * whether the batch reached its lane capacity or was the partial tail
 * of a trial range. See docs/OBSERVABILITY.md.
 */
void noteBatchFormed(std::size_t lanes, std::size_t capacity);

/** One chunk of a Monte-Carlo trial grid, as forEachTrialChunk hands it
 *  to its body. */
struct TrialChunk
{
    std::size_t point = 0; ///< index into the grid's RBER list
    std::size_t first = 0; ///< first trial of the chunk within its point
    std::size_t lanes = 0; ///< trials in the chunk (<= kBatchLanes)
    int worker = 0;        ///< parallelForWorker id, for per-worker scratch
    const BitVec *const *words = nullptr; ///< the lanes' corrupted words
};

/**
 * The Monte-Carlo trial grid of the capability, RP-accuracy and
 * RP-threshold harnesses: `trials` codewords at each of `rbers`.
 *
 * Every stream is forked from Rng(seed) before the parallel region, in
 * (point, trial) order, so trial t of point p owns stream p·trials + t.
 * One parallelForWorker then covers every (point, chunk) pair; chunk c
 * of a point is its trials [cB, cB + B) with B =
 * MinSumDecoder::kBatchLanes, so chunk composition — and with it every
 * result — is independent of the thread count. Each lane's codeword is
 * random data, encoded, with BSC errors at rbers[point], drawn from the
 * trial's stream into per-worker buffers that stay valid for the body
 * call. Every chunk is recorded as one formed batch (noteBatchFormed).
 */
void forEachTrialChunk(const QcLdpcCode &code,
                       const std::vector<double> &rbers, std::size_t trials,
                       std::uint64_t seed,
                       const std::function<void(const TrialChunk &)> &body);

/**
 * Reusable scratch for MinSumDecoder::decodeBatch. Buffers grow to the
 * largest (code x lanes) decoded through them and are then reused, so
 * steady-state batch decodes allocate only the corrected words of
 * successful lanes (the same caveat as DecodeWorkspace).
 *
 * No per-edge message is stored: the decoder keeps the compressed
 * check-node state of simd::minsumCheckPass8 (see simd.h). Lane l of a
 * float field sits at [.. * 8 + l], of a byte field in bit l. For the
 * paper's code (n = 36864, m = 4096, 138240 edges) the buffers take
 * about 1.8 MB, so they stay in a 2 MiB L2.
 */
struct BatchDecodeWorkspace
{
    /** Channel-LLR magnitude for `channel_rber`, cached per value. */
    float llrMagnitude(double channel_rber);

    std::vector<float> total;               ///< per-variable posteriors
    std::vector<simd::MinSumCheck8> checks; ///< per-check two-min state
    std::vector<std::uint8_t> edgeSign;     ///< per-edge v2c sign bits
    std::vector<std::uint8_t> chanSign;     ///< per-variable received bits

    CodewordBatch hard; ///< packed hard decisions, all lanes
    CodewordBatch row;  ///< per-block-row syndrome accumulator

  private:
    double cachedRber_ = -1.0;
    float cachedLlr_ = 0.0f;
};

} // namespace ldpc
} // namespace rif

#endif // RIF_LDPC_BATCH_H
