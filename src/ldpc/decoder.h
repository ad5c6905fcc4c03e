/**
 * @file
 * The normalized min-sum LDPC decoder over a binary symmetric channel:
 * the workhorse used to measure the code's correction capability
 * (Fig. 3). It reports iteration counts so the simulator's variable tECC
 * model can be derived from measured decoding behaviour. Received and
 * corrected words are packed BitVecs.
 *
 * decodeBatch (the production path) decodes 8 words in lockstep; the
 * single-word decode() is its bit-exact oracle. decode() accepts an
 * optional caller-owned DecodeWorkspace so hot loops perform zero heap
 * allocation in steady state; the workspace also caches the channel-LLR
 * magnitude per distinct RBER. The overload without a workspace uses one
 * thread_local scratch per thread, so it is both allocation-free in
 * steady state and safe under the parallel harness.
 */

#ifndef RIF_LDPC_DECODER_H
#define RIF_LDPC_DECODER_H

#include <cstdint>
#include <vector>

#include "ldpc/code.h"

namespace rif {
namespace ldpc {

struct BatchDecodeWorkspace;

/** Outcome of one decode attempt. */
struct DecodeResult
{
    bool success = false;  ///< all parity checks satisfied on exit
    int iterations = 0;    ///< iterations actually executed
    /** Corrected word (valid only when success). */
    BitVec word;
};

/**
 * Reusable decoder scratch. One per thread (or per caller); buffers grow
 * to the largest code decoded through them and are then reused, so
 * steady-state decode() calls allocate only the corrected word of
 * successful results.
 */
struct DecodeWorkspace
{
    /** Channel-LLR magnitude for `channel_rber`, cached per value. */
    float llrMagnitude(double channel_rber);

    std::vector<float> chan; ///< per-variable channel LLR
    std::vector<float> v2c;  ///< variable-to-check messages
    std::vector<float> c2v;  ///< check-to-variable messages
    BitVec hard;             ///< packed hard decision
    BitVec row;              ///< per-block-row syndrome accumulator

  private:
    double cachedRber_ = -1.0;
    float cachedLlr_ = 0.0f;
};

/**
 * Normalized min-sum decoder. Messages are floats; check-to-variable
 * updates use the two-minimum trick with a normalization factor alpha.
 */
class MinSumDecoder
{
  public:
    /**
     * @param code the code to decode
     * @param max_iterations hard iteration cap (the paper uses 20)
     * @param alpha min-sum normalization factor
     */
    explicit MinSumDecoder(const QcLdpcCode &code, int max_iterations = 20,
                           float alpha = 0.8f);

    /**
     * Decode a received hard-decision word.
     *
     * @param received n-bit word from the channel
     * @param channel_rber assumed raw bit error rate (sets the channel
     *        LLR magnitude); any reasonable value works for min-sum
     */
    DecodeResult decode(const BitVec &received,
                        double channel_rber = 0.0085) const;

    /** Decode with caller-owned scratch (zero steady-state allocation). */
    DecodeResult decode(const BitVec &received, double channel_rber,
                        DecodeWorkspace &ws) const;

    /**
     * Lanes per internal decode chunk: the batched kernel is compiled
     * for exactly this width so every per-lane loop vectorizes at full
     * register width (8 floats = one 256-bit vector). Harnesses get the
     * best throughput by batching in multiples of this.
     */
    static constexpr std::size_t kBatchLanes = 8;

    /**
     * Decode `lanes` received words in lockstep over the batched SoA
     * datapath (see batch.h). Bit-identical, lane for lane, to calling
     * decode() on each word separately: same corrected words, same
     * iteration counts, same metric totals. results[] receives `lanes`
     * entries. Internally runs kBatchLanes-wide chunks; any lane count
     * is accepted (short chunks are padded with an implicit all-zero
     * word that never surfaces in results or metrics).
     */
    void decodeBatch(const BitVec *const *received, std::size_t lanes,
                     double channel_rber, BatchDecodeWorkspace &ws,
                     DecodeResult *results) const;

    int maxIterations() const { return maxIterations_; }

  private:
    /** One fixed-width chunk of decodeBatch (lanes <= kBatchLanes). */
    void decodeBatchChunk(const BitVec *const *received,
                          std::size_t lanes, double channel_rber,
                          BatchDecodeWorkspace &ws,
                          DecodeResult *results) const;

    const QcLdpcCode &code_;
    int maxIterations_;
    float alpha_;
    /** Edges grouped by variable: indices into the check-major arrays. */
    std::vector<std::uint32_t> varEdge_;
    std::vector<std::uint32_t> varStart_;
};

} // namespace ldpc
} // namespace rif

#endif // RIF_LDPC_DECODER_H
