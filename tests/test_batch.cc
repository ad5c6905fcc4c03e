/**
 * @file
 * Equivalence tests for the batched SoA datapath: CodewordBatch
 * scatter/gather, batched syndrome kernels against the single-codeword
 * oracles, batched min-sum decode against per-lane decode (results,
 * iteration counts and metric totals), and the simd:: dispatch layer
 * against plain word loops and the scalar min-sum ladder and sums.
 * These are the tests the scalar-fallback CI leg (-DRIF_SIMD=OFF) runs
 * to pin both backends to the same bits.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/simd.h"
#include "ldpc/batch.h"
#include "ldpc/channel.h"
#include "ldpc/code.h"
#include "ldpc/decoder.h"

namespace rif {
namespace ldpc {
namespace {

CodeParams
smallParams(int t = 64)
{
    CodeParams p;
    p.circulant = t;
    return p;
}

TEST(SimdDispatch, BackendNameIsKnown)
{
    // A RIF_SIMD build on an AVX2 CPU must dispatch to the AVX2 kernels:
    // otherwise the kernel tests below would compare the scalar kernels
    // with the scalar oracle and pass on a dispatch regression.
    const std::string name = simd::backendName();
#if RIF_SIMD_ENABLED && defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) {
        EXPECT_EQ(name, "avx2");
        return;
    }
#endif
    EXPECT_EQ(name, "scalar");
}

TEST(SimdDispatch, XorWordsMatchesPlainLoop)
{
    Rng rng(1);
    for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 64u, 129u}) {
        std::vector<std::uint64_t> dst(n), src(n), want(n);
        for (std::size_t i = 0; i < n; ++i) {
            dst[i] = rng.next();
            src[i] = rng.next();
            want[i] = dst[i] ^ src[i];
        }
        simd::xorWords(dst.data(), src.data(), n);
        EXPECT_EQ(dst, want) << "n=" << n;
    }
}

TEST(SimdDispatch, PopcountWordsMatchesPlainLoop)
{
    Rng rng(2);
    for (std::size_t n : {0u, 1u, 2u, 5u, 64u, 131u}) {
        std::vector<std::uint64_t> p(n);
        std::size_t want = 0;
        for (std::size_t i = 0; i < n; ++i) {
            p[i] = rng.next();
            want += static_cast<std::size_t>(std::popcount(p[i]));
        }
        EXPECT_EQ(simd::popcountWords(p.data(), n), want) << "n=" << n;
    }
}

TEST(SimdDispatch, XorFunnelWordsMatchesPlainLoop)
{
    Rng rng(3);
    const std::size_t n = 67; // exercises the vector body and the tail
    std::vector<std::uint64_t> a(n + 1), dst(n), want(n);
    for (auto &w : a)
        w = rng.next();
    for (unsigned sb : {0u, 1u, 13u, 63u}) {
        for (std::uint64_t mask :
             {~std::uint64_t(0), std::uint64_t(0xffff), std::uint64_t(1)}) {
            for (unsigned db : {0u, 5u}) {
                for (std::size_t i = 0; i < n; ++i)
                    dst[i] = want[i] = rng.next();
                const std::uint64_t *hi = sb != 0 ? a.data() + 1 : nullptr;
                for (std::size_t i = 0; i < n; ++i) {
                    std::uint64_t bits = a[i] >> sb;
                    if (hi)
                        bits |= hi[i] << (64 - sb);
                    want[i] ^= (bits & mask) << db;
                }
                simd::xorFunnelWords(dst.data(), a.data(), hi, sb, mask, db,
                                     n);
                EXPECT_EQ(dst, want)
                    << "sb=" << sb << " mask=" << mask << " db=" << db;
            }
        }
    }
}

/**
 * p - base as an address. A kernel handed the result and edge indices
 * in [base, base + n) touches only those elements, which land back
 * inside p's array of n elements; no array of 2^31 edges is needed.
 */
template <typename T>
T *
rebased(T *p, std::uint32_t base)
{
    return reinterpret_cast<T *>(reinterpret_cast<std::uintptr_t>(p) -
                                 std::uintptr_t{base} * sizeof(T));
}

TEST(SimdDispatch, MinSumCheckPassMatchesScalarLadder)
{
    // Three checks in one call, on edges [0, 4), [4, 9) and [9, 12);
    // edge e reads variable e, and lane l's posteriors are totals[l].
    // Check 0 covers a two-way tie for the minimum (lanes 0, 3), an
    // all-way tie (lane 1), a tie for the second minimum (lane 4) and a
    // zero posterior (lane 5). Checks 1 and 2 start past edge 0 and
    // cover a strict minimum on the check's first edge (check 1 lanes
    // 0, 4, 6), a strict minimum after a tie (check 1 lane 1, check 2
    // lane 0) and lanes where no |v2c| falls below the ladder's start
    // of 1e30, whose minEdge stays the first edge (check 1 lane 3,
    // check 2 lane 1). Two passes over the same posteriors: the second
    // rebuilds the first pass's c2v from the compressed state.
    //
    // The call runs once at edge 0 and once with every edge index moved
    // up by 2^31 - 6, so that check 1 straddles 2^31: minEdge must be
    // tracked over unsigned indices.
    constexpr std::size_t L = 8, edges = 12, nchecks = 3;
    const std::uint32_t local[nchecks + 1] = {0, 4, 9, 12};
    const float totals[L][edges] = {
        {3.0f, -2.0f, 2.0f, 5.0f, 0.5f, 2.0f, 1.0f, 3.0f, 4.0f, 1.0f,
         1.0f, 0.5f},
        {1.0f, 1.0f, 1.0f, 1.0f, 2.0f, 2.0f, -1.0f, 3.0f, 2.0f, 2e30f,
         1e30f, -5e30f},
        {4.0f, 3.0f, -3.0f, 0.5f, 1.0f, 3.0f, 1.0f, 2.0f, 5.0f, -4.0f,
         2.0f, 3.0f},
        {-1.0f, -4.0f, -1.0f, -6.0f, 1e30f, -2e30f, 3e38f, -1e30f, 1e31f,
         0.25f, -0.5f, 0.125f},
        {7.0f, -0.25f, 6.5f, -6.5f, -0.25f, 1.0f, -2.0f, 3.0f, 0.5f, 6.0f,
         6.0f, -6.0f},
        {0.0f, 2.0f, -1.5f, 2.5f, 5.0f, 4.0f, 3.0f, 2.0f, 1.0f, 0.0f, 0.0f,
         -1.0f},
        {-9.0f, 8.0f, -7.0f, 6.0f, 0.0f, 0.0f, -1.0f, 0.0f, 2.0f, 1.5f,
         -1.5f, 1.0f},
        {0.75f, 0.5f, 0.25f, 0.125f, 3.0f, -3.0f, 3.0f, -3.0f, 0.125f,
         -2.0f, 2.0f, -2.0f}};
    const float alpha = 0.8f;
    std::vector<float> total(edges * L);
    std::uint32_t edge_var[edges];
    for (std::size_t e = 0; e < edges; ++e) {
        edge_var[e] = static_cast<std::uint32_t>(e);
        for (std::size_t l = 0; l < L; ++l)
            total[e * L + l] = totals[l][e];
    }

    for (const std::uint32_t base : {0u, (1u << 31) - 6u}) {
        std::uint32_t offsets[nchecks + 1];
        for (std::size_t k = 0; k <= nchecks; ++k)
            offsets[k] = base + local[k];
        simd::MinSumCheck8 state[nchecks] = {};
        std::uint8_t edge_sign[edges] = {};
        float c2v[L][edges] = {}; // the reference's messages, all +0 first
        for (int pass = 0; pass < 2; ++pass) {
            simd::minsumCheckPass8(offsets, nchecks,
                                   rebased(edge_var, base), total.data(),
                                   state, rebased(edge_sign, base), alpha);
            for (std::size_t chk = 0; chk < nchecks; ++chk) {
                const simd::MinSumCheck8 &c = state[chk];
                const std::uint32_t lo = local[chk], hi = local[chk + 1];
                for (std::size_t l = 0; l < L; ++l) {
                    // The if/else ladder of MinSumDecoder::decode.
                    float v2c[edges];
                    float min1 = 1e30f, min2 = 1e30f;
                    std::uint32_t min_e = lo;
                    int sign = 1;
                    for (std::uint32_t e = lo; e < hi; ++e) {
                        v2c[e] = totals[l][e] - c2v[l][e];
                        const float mag = std::fabs(v2c[e]);
                        if (v2c[e] < 0.0f)
                            sign = -sign;
                        if (mag < min1) {
                            min2 = min1;
                            min1 = mag;
                            min_e = e;
                        } else if (mag < min2) {
                            min2 = mag;
                        }
                        EXPECT_EQ((edge_sign[e] >> l) & 1u,
                                  v2c[e] < 0.0f ? 1u : 0u)
                            << "base " << base << " pass " << pass
                            << " lane " << l << " edge " << e;
                    }
                    const auto where = ::testing::Message()
                                       << "base " << base << " pass "
                                       << pass << " check " << chk
                                       << " lane " << l;
                    EXPECT_EQ(c.minEdge[l], base + min_e) << where;
                    EXPECT_EQ(c.mag1[l], alpha * min1) << where;
                    EXPECT_EQ(c.mag2[l], alpha * min2) << where;
                    EXPECT_EQ(c.sign[l], sign < 0 ? simd::kFloatSignBit : 0u)
                        << where;
                    for (std::uint32_t e = lo; e < hi; ++e) {
                        float s = static_cast<float>(sign);
                        if (v2c[e] < 0.0f)
                            s = -s;
                        c2v[l][e] = alpha * s * (e == min_e ? min2 : min1);
                    }
                }
            }
        }
    }
}

TEST(SimdDispatch, MinSumVarPassAddsInEdgeOrder)
{
    // Random posteriors through one check pass give arbitrary float
    // messages. The variable pass must add them per variable in
    // increasing edge order, as MinSumDecoder::decode does: another
    // order rounds differently, which the decode-level tests rarely see.
    const QcLdpcCode code(smallParams());
    const auto &ev = code.checkAdjacency();
    const auto &cs = code.checkOffsets();
    const std::size_t n = code.params().n();
    const std::size_t m = code.params().m();
    constexpr std::size_t L = 8;
    Rng rng(900);
    std::vector<float> total(n * L);
    for (float &x : total)
        x = static_cast<float>(rng.uniform(-10.0, 10.0));
    std::vector<simd::MinSumCheck8> checks(m);
    std::vector<std::uint8_t> edge_sign(ev.size());
    simd::minsumCheckPass8(cs.data(), m, ev.data(), total.data(),
                           checks.data(), edge_sign.data(), 0.8f);
    std::vector<std::uint8_t> chan_sign(n);
    for (std::uint8_t &b : chan_sign)
        b = static_cast<std::uint8_t>(rng.next());
    const float llr = 3.3f;
    CodewordBatch hard(n, L);
    simd::minsumVarPass8(chan_sign.data(), llr, n, cs.data(), m, ev.data(),
                         checks.data(), edge_sign.data(), total.data(),
                         hard.words());

    std::vector<std::uint32_t> edge_chk(ev.size());
    std::vector<std::vector<std::uint32_t>> var_edges(n);
    for (std::uint32_t chk = 0; chk < m; ++chk) {
        for (std::uint32_t e = cs[chk]; e < cs[chk + 1]; ++e) {
            edge_chk[e] = chk;
            var_edges[ev[e]].push_back(e); // increasing edge order
        }
    }
    for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t l = 0; l < L; ++l) {
            float want = (chan_sign[v] >> l) & 1u ? -llr : llr;
            for (std::uint32_t e : var_edges[v]) {
                const simd::MinSumCheck8 &c = checks[edge_chk[e]];
                const float mag = e == c.minEdge[l] ? c.mag2[l] : c.mag1[l];
                const bool neg =
                    (c.sign[l] != 0) != (((edge_sign[e] >> l) & 1u) != 0);
                want += neg ? -mag : mag;
            }
            ASSERT_EQ(std::bit_cast<std::uint32_t>(total[v * L + l]),
                      std::bit_cast<std::uint32_t>(want))
                << "variable " << v << " lane " << l;
            ASSERT_EQ(hard.get(l, v), want < 0.0f)
                << "variable " << v << " lane " << l;
        }
    }
}

TEST(SimdDispatch, MinSumVarPassRebuildsSignedZeros)
{
    // Hand-set states with zero magnitudes: mag1 = +0 under a set sign
    // bit rebuilds c2v as -0.0f. With llr = 0 every total starts at
    // +-0, and -0 + -0 = -0 while -0 + +0 = +0, so a message rebuilt
    // with the wrong zero shows in the bits of total. The reference is
    // the blend form: (e == minEdge ? mag2 : mag1), its sign bit
    // flipped by sign ^ the edge's sign bit.
    constexpr std::size_t L = 8, n = 3;
    const std::uint32_t cs[3] = {0, 3, 5};
    const std::uint32_t edge_var[5] = {0, 1, 2, 0, 2};
    const std::uint8_t edge_sign[5] = {0x0f, 0x33, 0x55, 0x0f, 0x3c};
    const std::uint8_t chan_sign[n] = {0xff, 0x00, 0x5a};
    simd::MinSumCheck8 checks[2] = {};
    for (std::size_t l = 0; l < L; ++l) {
        checks[0].mag1[l] = l & 1u ? 0.5f : 0.0f;
        checks[0].mag2[l] = l & 2u ? 1.5f : 0.0f;
        checks[0].sign[l] = l & 4u ? simd::kFloatSignBit : 0u;
        checks[0].minEdge[l] = static_cast<std::uint32_t>(l % 3);
        checks[1].mag1[l] = 0.0f;
        checks[1].mag2[l] = l & 1u ? 0.25f : 0.0f;
        checks[1].sign[l] = l & 2u ? simd::kFloatSignBit : 0u;
        checks[1].minEdge[l] = 3u + static_cast<std::uint32_t>(l & 1u);
    }
    std::vector<float> total(n * L);
    std::vector<std::uint64_t> hard(L);
    simd::minsumVarPass8(chan_sign, 0.0f, n, cs, 2, edge_var, checks,
                         edge_sign, total.data(), hard.data());

    int negative_zeros = 0;
    for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t l = 0; l < L; ++l) {
            float want = (chan_sign[v] >> l) & 1u ? -0.0f : 0.0f;
            for (std::uint32_t e = 0; e < 5; ++e) {
                if (edge_var[e] != v)
                    continue;
                const simd::MinSumCheck8 &c = checks[e < 3 ? 0 : 1];
                const float mag = e == c.minEdge[l] ? c.mag2[l] : c.mag1[l];
                const std::uint32_t flip =
                    c.sign[l] ^ ((edge_sign[e] >> l) & 1u ? simd::kFloatSignBit
                                                          : 0u);
                want += std::bit_cast<float>(
                    std::bit_cast<std::uint32_t>(mag) ^ flip);
            }
            const auto got = std::bit_cast<std::uint32_t>(total[v * L + l]);
            ASSERT_EQ(got, std::bit_cast<std::uint32_t>(want))
                << "variable " << v << " lane " << l;
            negative_zeros += got == simd::kFloatSignBit;
        }
    }
    // The fixture must reach the case it is about.
    EXPECT_GT(negative_zeros, 0);
}

TEST(SimdDispatch, MinSumVarPassPackEdgeCases)
{
    // With no checks every posterior is +-llr. llr = 0 gives +-0.0f,
    // whose hard decision (total < 0) is 0 even with the sign bit set;
    // llr = 1 gives back the channel bits. Words are pre-filled with
    // ones, so every bit past n must be cleared by the pack.
    constexpr std::size_t L = 8;
    const std::uint32_t no_checks[1] = {0};
    for (const std::size_t n : {std::size_t{100}, std::size_t{129}}) {
        Rng rng(n);
        std::vector<std::uint8_t> chan_sign(n);
        for (std::uint8_t &b : chan_sign)
            b = static_cast<std::uint8_t>(rng.next());
        const std::size_t words = (n + 63) / 64;
        for (const float llr : {0.0f, 1.0f}) {
            std::vector<float> total(n * L);
            std::vector<std::uint64_t> hard(words * L, ~std::uint64_t{0});
            simd::minsumVarPass8(chan_sign.data(), llr, n, no_checks, 0,
                                 nullptr, nullptr, nullptr, total.data(),
                                 hard.data());
            for (std::size_t v = 0; v < words * 64; ++v) {
                for (std::size_t l = 0; l < L; ++l) {
                    const bool bit = (hard[(v / 64) * L + l] >> (v % 64)) & 1u;
                    const bool want = v < n && llr != 0.0f &&
                                      ((chan_sign[v] >> l) & 1u);
                    ASSERT_EQ(bit, want) << "n " << n << " llr " << llr
                                         << " variable " << v << " lane "
                                         << l;
                }
            }
        }
    }
}

TEST(CodewordBatch, LaneRoundTrip)
{
    Rng rng(10);
    const std::size_t nbits = 777; // non-word-aligned tail
    const std::size_t lanes = 5;
    CodewordBatch batch(nbits, lanes);
    std::vector<BitVec> words(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        words[l] = randomData(nbits, rng);
        batch.setLane(l, words[l]);
    }
    BitVec out;
    for (std::size_t l = 0; l < lanes; ++l) {
        batch.extractLane(l, out);
        EXPECT_EQ(out, words[l]) << "lane " << l;
        for (std::size_t b = 0; b < nbits; b += 97)
            EXPECT_EQ(batch.get(l, b), words[l].get(b));
    }
}

TEST(CodewordBatch, XorRangeMatchesBitVecPerLane)
{
    Rng rng(11);
    const std::size_t nbits = 1000;
    const std::size_t lanes = 3;
    CodewordBatch dst(nbits, lanes), src(nbits, lanes);
    std::vector<BitVec> dref(lanes), sref(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        dref[l] = randomData(nbits, rng);
        sref[l] = randomData(nbits, rng);
        dst.setLane(l, dref[l]);
        src.setLane(l, sref[l]);
    }
    // Mix of alignments: aligned, unaligned src, unaligned dst, short.
    const struct
    {
        std::size_t d, s, len;
    } cases[] = {{0, 0, 960}, {64, 3, 500}, {7, 64, 700}, {13, 29, 40},
                 {1, 1, 999}};
    BitVec out;
    for (const auto &c : cases) {
        dst.xorRange(c.d, src, c.s, c.len);
        for (std::size_t l = 0; l < lanes; ++l)
            dref[l].xorRange(c.d, sref[l], c.s, c.len);
    }
    for (std::size_t l = 0; l < lanes; ++l) {
        dst.extractLane(l, out);
        EXPECT_EQ(out, dref[l]) << "lane " << l;
    }
}

class BatchSyndromeEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(BatchSyndromeEquivalence, WeightsMatchSingleKernels)
{
    const QcLdpcCode code(smallParams(GetParam()));
    Rng rng(100 + GetParam());
    const std::size_t lanes = 6;
    CodewordBatch batch(code.params().n(), lanes);
    std::vector<BitVec> words(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        words[l] = code.encode(randomData(code.params().k(), rng));
        injectErrors(words[l], 0.003 * static_cast<double>(l), rng);
        batch.setLane(l, words[l]);
    }

    CodewordBatch scratch;
    std::vector<std::size_t> weights(lanes);
    syndromeWeightBatch(code, batch, scratch, weights.data());
    for (std::size_t l = 0; l < lanes; ++l)
        EXPECT_EQ(weights[l], code.syndromeWeight(words[l])) << "lane " << l;

    prunedSyndromeWeightBatch(code, batch, scratch, weights.data());
    for (std::size_t l = 0; l < lanes; ++l)
        EXPECT_EQ(weights[l], code.prunedSyndromeWeight(words[l]))
            << "lane " << l;

    CodewordBatch synd;
    syndromeBatchInto(code, batch, synd);
    BitVec lane;
    for (std::size_t l = 0; l < lanes; ++l) {
        synd.extractLane(l, lane);
        EXPECT_EQ(lane, code.syndrome(words[l])) << "lane " << l;
    }
}

// t = 96 exercises non-word-aligned segment boundaries in every kernel.
INSTANTIATE_TEST_SUITE_P(CirculantSizes, BatchSyndromeEquivalence,
                         ::testing::Values(64, 96, 128));

/**
 * Decode `words` through decodeBatch (with `bws`) and one by one
 * through decode(), and expect the same success flag, iteration count
 * and corrected word per lane, and the same decoder metric totals.
 * Returns the per-lane results so callers can check their preconditions.
 */
std::vector<DecodeResult>
expectBatchMatchesPerLane(const MinSumDecoder &dec,
                          const std::vector<BitVec> &words, double rber,
                          BatchDecodeWorkspace &bws)
{
    const std::size_t lanes = words.size();
    std::vector<const BitVec *> ptrs(lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        ptrs[l] = &words[l];

    metrics::MetricsScope batch_scope;
    std::vector<DecodeResult> got(lanes);
    dec.decodeBatch(ptrs.data(), lanes, rber, bws, got.data());
    const metrics::Snapshot batch_snap = batch_scope.finish();

    metrics::MetricsScope single_scope;
    DecodeWorkspace ws;
    for (std::size_t l = 0; l < lanes; ++l) {
        const DecodeResult want = dec.decode(words[l], rber, ws);
        EXPECT_EQ(got[l].success, want.success) << "lane " << l;
        EXPECT_EQ(got[l].iterations, want.iterations) << "lane " << l;
        EXPECT_EQ(got[l].word, want.word) << "lane " << l;
    }
    const metrics::Snapshot single_snap = single_scope.finish();

    // Same metric totals as lanes-many single decodes.
    for (const char *name : {"ldpc.decode.attempts", "ldpc.decode.iterations",
                             "ldpc.decode.failures"}) {
        EXPECT_EQ(batch_snap.value(name), single_snap.value(name)) << name;
    }
    return got;
}

/** `lanes` codewords of `code`, each with errors at rber(l). */
template <class RberFn>
std::vector<BitVec>
noisyCodewords(const QcLdpcCode &code, std::size_t lanes, Rng &rng,
               RberFn rber)
{
    std::vector<BitVec> words(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        words[l] = code.encode(randomData(code.params().k(), rng));
        injectErrors(words[l], rber(l), rng);
    }
    return words;
}

class BatchDecodeEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(BatchDecodeEquivalence, MatchesPerLaneDecode)
{
    const std::size_t lanes = static_cast<std::size_t>(GetParam());
    const QcLdpcCode code(smallParams());
    const MinSumDecoder dec(code, 12);
    Rng rng(200 + GetParam());

    // Mixed difficulty so lanes converge at different iterations and
    // some fail outright.
    const auto words = noisyCodewords(code, lanes, rng, [](std::size_t l) {
        return (l % 4 == 3) ? 0.08 : 0.001 + 0.002 * (l % 3);
    });
    BatchDecodeWorkspace bws;
    const auto got = expectBatchMatchesPerLane(dec, words, 0.004, bws);
    if (lanes >= 8) {
        int failures = 0;
        for (const DecodeResult &r : got)
            failures += !r.success;
        EXPECT_GT(failures, 0) << "mix should include failing lanes";
    }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchDecodeEquivalence,
                         ::testing::Values(1, 3, 8, 64));

TEST(BatchDecode, UnalignedCirculantMatchesPerLaneDecode)
{
    const QcLdpcCode code(smallParams(96));
    const MinSumDecoder dec(code, 10);
    Rng rng(300);
    const auto words =
        noisyCodewords(code, 4, rng, [](std::size_t) { return 0.004; });
    BatchDecodeWorkspace bws;
    expectBatchMatchesPerLane(dec, words, 0.004, bws);
}

TEST(BatchDecode, WorkspaceReuseAcrossBatchSizes)
{
    const QcLdpcCode code(smallParams());
    const MinSumDecoder dec(code, 10);
    Rng rng(400);
    BatchDecodeWorkspace bws;
    // Shrinking and regrowing the lane count through one workspace must
    // not leak state between calls.
    for (std::size_t lanes : {5u, 2u, 7u, 1u}) {
        const auto words = noisyCodewords(code, lanes, rng,
                                          [](std::size_t) { return 0.003; });
        expectBatchMatchesPerLane(dec, words, 0.004, bws);
    }
}

TEST(BatchDecode, PaperCodeAtIterationCapMatchesPerLaneDecode)
{
    // Far above the capability (~0.0085) every lane runs all 20
    // iterations, so the whole schedule is compared, not an early exit.
    const QcLdpcCode code(paperCode());
    const MinSumDecoder dec(code, 20);
    Rng rng(500);
    const double rber = 0.016;
    const auto words = noisyCodewords(
        code, MinSumDecoder::kBatchLanes, rng,
        [&](std::size_t) { return rber; });
    BatchDecodeWorkspace bws;
    const auto got = expectBatchMatchesPerLane(dec, words, rber, bws);
    for (std::size_t l = 0; l < got.size(); ++l) {
        EXPECT_FALSE(got[l].success) << "lane " << l;
        EXPECT_EQ(got[l].iterations, 20) << "lane " << l;
    }
}

TEST(BatchDecode, TiedMinimaMatchPerLaneDecode)
{
    // Check 0 holds the data bits a and b. Flipping both (plus light
    // noise elsewhere) leaves a and b with equal |v2c| on check 0 from
    // the second iteration on, so the two-min state of that check has a
    // tie for its minimum; flipping a alone gives a single minimum at
    // a's edge, and the clean lane ties every edge. The lanes thus pick
    // different minimum edges for the same check.
    const QcLdpcCode code(smallParams());
    const MinSumDecoder dec(code, 12);
    const auto &ev = code.checkAdjacency();
    const std::uint32_t a = ev[0];
    const std::uint32_t b = ev[1];
    Rng rng(600);
    std::vector<BitVec> words(MinSumDecoder::kBatchLanes);
    for (std::size_t l = 0; l < words.size(); ++l) {
        words[l] = code.encode(randomData(code.params().k(), rng));
        if (l == 0)
            continue; // clean: every |v2c| of every check ties
        if (l >= 4)
            injectErrors(words[l], 0.002 * static_cast<double>(l), rng);
        words[l].flip(a);
        if (l % 2 == 1)
            words[l].flip(b);
    }
    BatchDecodeWorkspace bws;
    const auto got = expectBatchMatchesPerLane(dec, words, 0.004, bws);
    EXPECT_TRUE(got[0].success);
    EXPECT_EQ(got[0].iterations, 1);
}

TEST(BatchDecode, DegreeVaryingChecksMatchPerLaneDecode)
{
    // A short code where the dual-diagonal parity rows dominate: block
    // row 0 has degree 5 and rows 1-3 degree 6, and the errors sit in
    // the parity block columns only.
    CodeParams p;
    p.blockCols = 8;
    p.circulant = 32;
    const QcLdpcCode code(p);
    const MinSumDecoder dec(code, 15);
    Rng rng(700);
    std::vector<BitVec> words(MinSumDecoder::kBatchLanes);
    const std::size_t k = p.k();
    for (std::size_t l = 0; l < words.size(); ++l) {
        words[l] = code.encode(randomData(k, rng));
        for (std::size_t e = 0; e < 4 * (l + 1); ++e)
            words[l].flip(k + rng.below(p.n() - k));
    }
    BatchDecodeWorkspace bws;
    const auto got = expectBatchMatchesPerLane(dec, words, 0.01, bws);
    int successes = 0;
    for (const DecodeResult &r : got)
        successes += r.success;
    EXPECT_GT(successes, 0);
    EXPECT_LT(successes, static_cast<int>(got.size()));
}

TEST(BatchDecode, WorkspaceReuseAcrossCodes)
{
    // One workspace, small code then paper code then small again: the
    // state arrays regrow to the larger code and shrink back without
    // carrying anything over.
    const QcLdpcCode small(smallParams());
    const QcLdpcCode paper(paperCode());
    const MinSumDecoder small_dec(small, 12);
    const MinSumDecoder paper_dec(paper, 20);
    Rng rng(800);
    BatchDecodeWorkspace bws;
    const auto noisy = [](std::size_t l) { return 0.002 + 0.001 * l; };
    expectBatchMatchesPerLane(small_dec, noisyCodewords(small, 8, rng, noisy),
                              0.004, bws);
    expectBatchMatchesPerLane(paper_dec, noisyCodewords(paper, 8, rng, noisy),
                              0.006, bws);
    expectBatchMatchesPerLane(small_dec, noisyCodewords(small, 3, rng, noisy),
                              0.004, bws);
}

} // namespace
} // namespace ldpc
} // namespace rif
