#include "ldpc/decoder.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "ldpc/batch.h"

namespace rif {
namespace ldpc {

namespace {

const metrics::Counter mDecodeAttempts{
    "ldpc.decode.attempts", "ops", "ECC decoder invocations"};
const metrics::Counter mDecodeIterations{
    "ldpc.decode.iterations", "iters", "decoder iterations executed"};
const metrics::Counter mDecodeFailures{
    "ldpc.decode.failures", "ops", "decodes hitting the iteration cap"};

/** Bump the decoder counters for one finished decode. */
inline void
noteDecode(const DecodeResult &result)
{
    mDecodeAttempts.inc();
    mDecodeIterations.add(static_cast<std::uint64_t>(result.iterations));
    if (!result.success)
        mDecodeFailures.inc();
}

/** Build variable-major edge grouping from the code's check-major lists. */
void
buildVarAdjacency(const QcLdpcCode &code,
                  std::vector<std::uint32_t> &var_edge,
                  std::vector<std::uint32_t> &var_start)
{
    const auto &ev = code.checkAdjacency();
    const std::size_t n = code.params().n();
    const std::size_t edges = ev.size();

    std::vector<std::uint32_t> degree(n, 0);
    for (std::size_t e = 0; e < edges; ++e)
        ++degree[ev[e]];

    var_start.assign(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v)
        var_start[v + 1] = var_start[v] + degree[v];

    var_edge.resize(edges);
    std::vector<std::uint32_t> cursor(var_start.begin(),
                                      var_start.end() - 1);
    for (std::size_t e = 0; e < edges; ++e)
        var_edge[cursor[ev[e]]++] = static_cast<std::uint32_t>(e);
}

/** Per-thread scratch backing the workspace-less decode() overloads. */
DecodeWorkspace &
threadWorkspace()
{
    static thread_local DecodeWorkspace ws;
    return ws;
}

} // namespace

float
DecodeWorkspace::llrMagnitude(double channel_rber)
{
    if (channel_rber != cachedRber_) {
        const double p = std::clamp(channel_rber, 1e-6, 0.49);
        cachedRber_ = channel_rber;
        cachedLlr_ = static_cast<float>(std::log((1.0 - p) / p));
    }
    return cachedLlr_;
}

MinSumDecoder::MinSumDecoder(const QcLdpcCode &code, int max_iterations,
                             float alpha)
    : code_(code), maxIterations_(max_iterations), alpha_(alpha)
{
    RIF_ASSERT(max_iterations > 0);
    buildVarAdjacency(code_, varEdge_, varStart_);
}

DecodeResult
MinSumDecoder::decode(const BitVec &received, double channel_rber) const
{
    return decode(received, channel_rber, threadWorkspace());
}

DecodeResult
MinSumDecoder::decode(const BitVec &received, double channel_rber,
                      DecodeWorkspace &ws) const
{
    const auto &params = code_.params();
    RIF_ASSERT(received.size() == params.n());

    const std::size_t n = params.n();
    const std::size_t m = params.m();
    const auto &ev = code_.checkAdjacency();
    const auto &cs = code_.checkOffsets();
    const std::size_t edges = ev.size();

    const float llr0 = ws.llrMagnitude(channel_rber);

    ws.chan.resize(n);
    for (std::size_t v = 0; v < n; ++v)
        ws.chan[v] = received.get(v) ? -llr0 : llr0;

    ws.v2c.resize(edges);
    ws.c2v.assign(edges, 0.0f);
    for (std::size_t e = 0; e < edges; ++e)
        ws.v2c[e] = ws.chan[ev[e]];

    ws.hard.reset(n);
    DecodeResult result;

    for (int iter = 1; iter <= maxIterations_; ++iter) {
        // Check-node pass: normalized min-sum with the two-min trick.
        for (std::size_t chk = 0; chk < m; ++chk) {
            const std::uint32_t lo = cs[chk];
            const std::uint32_t hi = cs[chk + 1];
            float min1 = 1e30f, min2 = 1e30f;
            std::uint32_t min_e = lo;
            int sign = 1;
            for (std::uint32_t e = lo; e < hi; ++e) {
                const float v = ws.v2c[e];
                const float mag = std::fabs(v);
                if (v < 0.0f)
                    sign = -sign;
                if (mag < min1) {
                    min2 = min1;
                    min1 = mag;
                    min_e = e;
                } else if (mag < min2) {
                    min2 = mag;
                }
            }
            for (std::uint32_t e = lo; e < hi; ++e) {
                const float mag = (e == min_e) ? min2 : min1;
                float s = static_cast<float>(sign);
                if (ws.v2c[e] < 0.0f)
                    s = -s;
                ws.c2v[e] = alpha_ * s * mag;
            }
        }

        // Variable-node pass; hard decisions are packed a word at a time.
        std::uint64_t bits = 0;
        for (std::size_t v = 0; v < n; ++v) {
            float total = ws.chan[v];
            for (std::uint32_t i = varStart_[v]; i < varStart_[v + 1]; ++i)
                total += ws.c2v[varEdge_[i]];
            for (std::uint32_t i = varStart_[v]; i < varStart_[v + 1]; ++i) {
                const std::uint32_t e = varEdge_[i];
                ws.v2c[e] = total - ws.c2v[e];
            }
            bits |= std::uint64_t{total < 0.0f} << (v & 63);
            if ((v & 63) == 63 || v + 1 == n) {
                ws.hard.setWord(v >> 6, bits);
                bits = 0;
            }
        }

        result.iterations = iter;
        if (code_.isCodeword(ws.hard, ws.row)) {
            result.success = true;
            result.word = ws.hard;
            noteDecode(result);
            return result;
        }
    }

    result.success = false;
    noteDecode(result);
    return result;
}

void
MinSumDecoder::decodeBatch(const BitVec *const *received,
                           std::size_t lanes, double channel_rber,
                           BatchDecodeWorkspace &ws,
                           DecodeResult *results) const
{
    RIF_ASSERT(lanes > 0);
    // Fixed-width chunks: the kernel below is compiled for exactly
    // kBatchLanes lanes so every per-lane loop vectorizes at full
    // register width. Lane results are independent, so chunking cannot
    // change them.
    for (std::size_t at = 0; at < lanes; at += kBatchLanes) {
        const std::size_t chunk = std::min(kBatchLanes, lanes - at);
        decodeBatchChunk(received + at, chunk, channel_rber, ws,
                         results + at);
    }
}

void
MinSumDecoder::decodeBatchChunk(const BitVec *const *received,
                                std::size_t lanes, double channel_rber,
                                BatchDecodeWorkspace &ws,
                                DecodeResult *results) const
{
    // L is a compile-time constant matching the kernels' 8 lanes, one
    // 256-bit vector per message. Because the vector ops always run at
    // full width, lanes that converged early (and the all-zero pad
    // lanes of a short chunk) cost nothing extra: chunk cost is
    // max-over-lanes iterations, not sum.
    constexpr std::size_t L = kBatchLanes;
    const auto &params = code_.params();
    const std::size_t n = params.n();
    const std::size_t m = params.m();
    const auto t = static_cast<std::size_t>(params.circulant);
    const auto &ev = code_.checkAdjacency();
    const auto &cs = code_.checkOffsets();
    RIF_ASSERT(lanes > 0 && lanes <= L);
    for (std::size_t l = 0; l < lanes; ++l)
        RIF_ASSERT(received[l]->size() == n);

    const float llr0 = ws.llrMagnitude(channel_rber);

    // Pad lanes carry the all-zero word: their messages stay finite and
    // they are excluded from all result/metric bookkeeping below.
    ws.chanSign.assign(n, 0);
    for (std::size_t l = 0; l < lanes; ++l) {
        const std::uint64_t *r = received[l]->words().data();
        for (std::size_t v = 0; v < n; ++v)
            ws.chanSign[v] |=
                static_cast<std::uint8_t>(((r[v >> 6] >> (v & 63)) & 1u) << l);
    }
    // Before the first iteration every c2v is +0 (the zeroed check
    // state), so the posterior is the channel LLR and the first check
    // pass sees v2c = chan - 0 = chan, as MinSumDecoder::decode does.
    ws.total.resize(n * L);
    for (std::size_t v = 0; v < n; ++v)
        for (std::size_t l = 0; l < L; ++l)
            ws.total[v * L + l] = (ws.chanSign[v] >> l) & 1u ? -llr0 : llr0;
    ws.checks.assign(m, simd::MinSumCheck8{});
    ws.edgeSign.assign(ev.size(), 0);

    ws.hard.reset(n, L);

    std::uint8_t converged[L];
    std::uint8_t rowOk[L];
    for (std::size_t l = 0; l < L; ++l) {
        converged[l] = l < lanes ? 0 : 1;
        if (l < lanes)
            results[l] = DecodeResult{};
    }

    std::size_t remaining = lanes;

    for (int iter = 1; iter <= maxIterations_ && remaining > 0; ++iter) {
        // Check-node pass: each check folds last iteration's messages,
        // rebuilt from its own state, into the new two-min state
        // (DESIGN.md §5f argues why every lane matches
        // MinSumDecoder::decode bit for bit).
        simd::minsumCheckPass8(cs.data(), m, ev.data(), ws.total.data(),
                               ws.checks.data(), ws.edgeSign.data(),
                               alpha_);

        // Variable-node pass, check-major. It also writes the hard
        // decisions (total < 0) straight into the batch's lane words: the
        // AVX2 kernel packs 64 variables per word with movemasks, the
        // scalar one bit by bit.
        simd::minsumVarPass8(ws.chanSign.data(), llr0, n, cs.data(), m,
                             ev.data(), ws.checks.data(),
                             ws.edgeSign.data(), ws.total.data(),
                             ws.hard.words());

        // Parity check: block rows are shared across lanes; a lane drops
        // out at its first non-zero row word. Rows stop once every
        // still-running lane has failed this iteration.
        for (std::size_t l = 0; l < L; ++l)
            rowOk[l] = converged[l] ? 0 : 1;
        std::size_t pending_ok = remaining;
        for (int i = 0; i < params.blockRows && pending_ok > 0; ++i) {
            ws.row.reset(t, L);
            xorRowSyndromeBatch(code_, ws.hard, i, ws.row, 0);
            const std::size_t wpl = ws.row.wordsPerLane();
            const std::uint64_t *rw = ws.row.words();
            for (std::size_t l = 0; l < lanes; ++l) {
                if (!rowOk[l])
                    continue;
                for (std::size_t w = 0; w < wpl; ++w) {
                    if (rw[w * L + l] != 0) {
                        rowOk[l] = 0;
                        --pending_ok;
                        break;
                    }
                }
            }
        }

        for (std::size_t l = 0; l < lanes; ++l) {
            if (converged[l])
                continue;
            results[l].iterations = iter;
            if (rowOk[l]) {
                converged[l] = 1;
                --remaining;
                results[l].success = true;
                ws.hard.extractLane(l, results[l].word);
            }
        }
    }

    for (std::size_t l = 0; l < lanes; ++l)
        noteDecode(results[l]);
}

} // namespace ldpc
} // namespace rif
