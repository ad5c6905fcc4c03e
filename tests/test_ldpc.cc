/**
 * @file
 * Tests of the QC-LDPC substrate: construction invariants (girth-4-free
 * shift selection), encoder correctness (valid codewords), syndrome
 * properties, decoder behaviour across error weights and the capability
 * measurement machinery.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "ldpc/capability.h"
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

TEST(CodeParams, DerivedSizes)
{
    const CodeParams p = paperCode();
    EXPECT_EQ(p.blockRows, 4);
    EXPECT_EQ(p.blockCols, 36);
    EXPECT_EQ(p.circulant, 1024);
    EXPECT_EQ(p.n(), 36864u);
    EXPECT_EQ(p.k(), 32768u); // exactly 4 KiB payload
    EXPECT_EQ(p.m(), 4096u);
    EXPECT_EQ(p.dataBlocks(), 32);
}

TEST(QcLdpcCode, AdjacencySizesMatchStructure)
{
    const QcLdpcCode code(smallParams());
    const auto &p = code.params();
    // Row degree: 32 data circulants + 1 parity (block row 0) or
    // + 2 parity (other rows).
    const std::size_t expected =
        static_cast<std::size_t>(p.circulant) *
        (static_cast<std::size_t>(p.dataBlocks()) * p.blockRows +
         (2 * p.blockRows - 1));
    EXPECT_EQ(code.edgeCount(), expected);
    EXPECT_EQ(code.checkOffsets().size(), p.m() + 1);
}

TEST(QcLdpcCode, ShiftsAreGirth4Free)
{
    const QcLdpcCode code(smallParams());
    const auto &p = code.params();
    const int t = p.circulant;
    // For every row pair, all shift differences across data columns and
    // the implicit 0 from the bidiagonal parity must be distinct.
    for (int i1 = 0; i1 < p.blockRows; ++i1) {
        for (int i2 = i1 + 1; i2 < p.blockRows; ++i2) {
            std::set<int> diffs;
            if (i2 == i1 + 1)
                diffs.insert(0); // parity columns
            for (int j = 0; j < p.dataBlocks(); ++j) {
                const int d =
                    ((code.shift(i1, j) - code.shift(i2, j)) % t + t) % t;
                EXPECT_TRUE(diffs.insert(d).second)
                    << "4-cycle between rows " << i1 << "," << i2;
            }
        }
    }
}

class EncodeRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(EncodeRoundTrip, EncodedWordsSatisfyAllChecks)
{
    const QcLdpcCode code(smallParams(GetParam()));
    Rng rng(100 + GetParam());
    for (int trial = 0; trial < 5; ++trial) {
        const BitVec data = randomData(code.params().k(), rng);
        const BitVec word = code.encode(data);
        ASSERT_EQ(word.size(), code.params().n());
        // Systematic: data bits come first.
        EXPECT_EQ(word.slice(0, data.size()), data);
        EXPECT_TRUE(code.isCodeword(word));
        EXPECT_EQ(code.syndromeWeight(word), 0u);
        EXPECT_EQ(code.prunedSyndromeWeight(word), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(CirculantSizes, EncodeRoundTrip,
                         ::testing::Values(64, 128, 256));

TEST(QcLdpcCode, AllZeroDataEncodesToAllZero)
{
    const QcLdpcCode code(smallParams());
    const BitVec word = code.encode(BitVec(code.params().k()));
    EXPECT_TRUE(word.isZero());
}

TEST(QcLdpcCode, SingleBitErrorRaisesSyndrome)
{
    const QcLdpcCode code(smallParams());
    Rng rng(7);
    BitVec word = code.encode(randomData(code.params().k(), rng));
    word.flip(123);
    // A data bit participates in one check per block row.
    EXPECT_EQ(code.syndromeWeight(word),
              static_cast<std::size_t>(code.params().blockRows));
    EXPECT_FALSE(code.isCodeword(word));
}

TEST(QcLdpcCode, PrunedWeightIsSubsetOfFull)
{
    const QcLdpcCode code(smallParams());
    Rng rng(8);
    for (int trial = 0; trial < 10; ++trial) {
        BitVec word = code.encode(randomData(code.params().k(), rng));
        injectErrors(word, 0.01, rng);
        EXPECT_LE(code.prunedSyndromeWeight(word),
                  code.syndromeWeight(word));
    }
}

TEST(QcLdpcCode, SyndromeWeightGrowsWithErrors)
{
    const QcLdpcCode code(smallParams(128));
    Rng rng(9);
    const BitVec clean = code.encode(randomData(code.params().k(), rng));
    double prev = 0.0;
    for (std::size_t errors : {8u, 32u, 128u, 512u}) {
        double avg = 0.0;
        for (int t = 0; t < 8; ++t) {
            BitVec w = clean;
            injectExactErrors(w, errors, rng);
            avg += static_cast<double>(code.syndromeWeight(w));
        }
        avg /= 8.0;
        EXPECT_GT(avg, prev);
        prev = avg;
    }
}

TEST(Channel, InjectErrorsMatchesRate)
{
    Rng rng(10);
    BitVec w(100000);
    const std::size_t flips = injectErrors(w, 0.01, rng);
    EXPECT_EQ(w.popcount(), flips);
    EXPECT_NEAR(static_cast<double>(flips), 1000.0, 150.0);
}

TEST(Channel, InjectZeroRateFlipsNothing)
{
    Rng rng(11);
    BitVec w(1000);
    EXPECT_EQ(injectErrors(w, 0.0, rng), 0u);
}

TEST(Channel, InjectExactErrors)
{
    Rng rng(12);
    BitVec w(5000);
    injectExactErrors(w, 37, rng);
    EXPECT_EQ(w.popcount(), 37u);
}

TEST(Channel, RandomDataIsBalanced)
{
    Rng rng(13);
    const BitVec d = randomData(100000, rng);
    EXPECT_NEAR(static_cast<double>(d.popcount()), 50000.0, 1000.0);
}

TEST(Channel, RandomDataPacksOneDrawPerWord)
{
    // Layout contract the scenario goldens depend on: bit b of the i-th
    // draw is data bit 64i + b, and a tail shorter than 64 bits takes
    // the low bits of one further draw.
    for (std::size_t k : {std::size_t(64), std::size_t(200)}) {
        Rng rng(21), ref(21);
        const BitVec d = randomData(k, rng);
        ASSERT_EQ(d.size(), k);
        for (std::size_t i = 0; 64 * i < k; ++i) {
            const std::uint64_t draw = ref.next();
            for (std::size_t b = 0; b < 64 && 64 * i + b < k; ++b)
                ASSERT_EQ(d.get(64 * i + b), ((draw >> b) & 1) != 0)
                    << "k=" << k << " bit " << 64 * i + b;
        }
        // Both generators consumed the same number of draws.
        EXPECT_EQ(rng.next(), ref.next()) << "k=" << k;
    }
}

TEST(MinSumDecoder, CleanWordDecodesInOneIteration)
{
    const QcLdpcCode code(smallParams());
    const MinSumDecoder dec(code);
    Rng rng(14);
    const BitVec word = code.encode(randomData(code.params().k(), rng));
    const DecodeResult res = dec.decode(word, 0.001);
    EXPECT_TRUE(res.success);
    EXPECT_EQ(res.iterations, 1);
    EXPECT_EQ(res.word, word);
}

TEST(MinSumDecoder, CorrectsFewErrorsExactly)
{
    const QcLdpcCode code(smallParams());
    const MinSumDecoder dec(code);
    Rng rng(15);
    for (int trial = 0; trial < 10; ++trial) {
        const BitVec clean =
            code.encode(randomData(code.params().k(), rng));
        BitVec noisy = clean;
        injectExactErrors(noisy, 5, rng);
        const DecodeResult res = dec.decode(noisy, 0.003);
        ASSERT_TRUE(res.success);
        EXPECT_EQ(res.word, clean) << "decoded to a different codeword";
    }
}

TEST(MinSumDecoder, FailsUnderOverwhelmingErrors)
{
    const QcLdpcCode code(smallParams());
    const MinSumDecoder dec(code, 10);
    Rng rng(16);
    BitVec noisy = code.encode(randomData(code.params().k(), rng));
    injectErrors(noisy, 0.20, rng);
    const DecodeResult res = dec.decode(noisy, 0.20);
    EXPECT_FALSE(res.success);
    EXPECT_EQ(res.iterations, 10);
}

TEST(MinSumDecoder, IterationsGrowWithErrorRate)
{
    const QcLdpcCode code(smallParams(256));
    const MinSumDecoder dec(code);
    Rng rng(17);
    auto avg_iters = [&](double rber) {
        double sum = 0.0;
        for (int t = 0; t < 6; ++t) {
            BitVec w = code.encode(randomData(code.params().k(), rng));
            injectErrors(w, rber, rng);
            sum += dec.decode(w, rber).iterations;
        }
        return sum / 6.0;
    };
    EXPECT_LT(avg_iters(0.001), avg_iters(0.006));
}

TEST(Capability, FailureProbabilityIsMonotoneInRber)
{
    const QcLdpcCode code(smallParams());
    const MinSumDecoder dec(code, 12);
    CapabilitySweepConfig cfg;
    cfg.rbers = {0.002, 0.01, 0.03};
    cfg.trials = 12;
    const auto pts = measureCapability(code, dec, cfg);
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_LE(pts[0].failureProbability, pts[1].failureProbability);
    EXPECT_LE(pts[1].failureProbability, pts[2].failureProbability);
    EXPECT_LT(pts[0].avgSyndromeWeight, pts[2].avgSyndromeWeight);
}

TEST(Capability, EstimateFindsThresholdPoint)
{
    std::vector<CapabilityPoint> pts(3);
    pts[0].rber = 0.004;
    pts[0].failureProbability = 0.0;
    pts[1].rber = 0.008;
    pts[1].failureProbability = 0.2;
    pts[2].rber = 0.012;
    pts[2].failureProbability = 1.0;
    EXPECT_DOUBLE_EQ(estimateCapability(pts, 0.1), 0.008);
    EXPECT_DOUBLE_EQ(estimateCapability(pts, 0.5), 0.012);
    EXPECT_DOUBLE_EQ(estimateCapability(pts, 2.0), 0.0);
}

TEST(Capability, SyndromeWeightInterpolates)
{
    std::vector<CapabilityPoint> pts(2);
    pts[0].rber = 0.004;
    pts[0].avgSyndromeWeight = 100.0;
    pts[0].avgPrunedSyndromeWeight = 25.0;
    pts[1].rber = 0.008;
    pts[1].avgSyndromeWeight = 200.0;
    pts[1].avgPrunedSyndromeWeight = 50.0;
    EXPECT_DOUBLE_EQ(syndromeWeightAt(pts, 0.006, false), 150.0);
    EXPECT_DOUBLE_EQ(syndromeWeightAt(pts, 0.006, true), 37.5);
    EXPECT_DOUBLE_EQ(syndromeWeightAt(pts, 0.001, false), 100.0);
    EXPECT_DOUBLE_EQ(syndromeWeightAt(pts, 0.02, false), 200.0);
}

class WordParallelEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(WordParallelEquivalence, EncodeMatchesReference)
{
    const QcLdpcCode code(smallParams(GetParam()));
    Rng rng(500 + GetParam());
    for (int trial = 0; trial < 5; ++trial) {
        const BitVec data = randomData(code.params().k(), rng);
        EXPECT_EQ(code.encode(data), code.referenceEncode(data));
    }
}

TEST_P(WordParallelEquivalence, SyndromeMatchesReference)
{
    const QcLdpcCode code(smallParams(GetParam()));
    Rng rng(600 + GetParam());
    for (int trial = 0; trial < 5; ++trial) {
        BitVec word = code.encode(randomData(code.params().k(), rng));
        injectErrors(word, 0.01, rng);
        const BitVec ref = code.referenceSyndrome(word);
        EXPECT_EQ(code.syndrome(word), ref);

        std::size_t ref_weight = 0, ref_pruned = 0;
        const auto t = static_cast<std::size_t>(code.params().circulant);
        for (std::size_t m = 0; m < ref.size(); ++m) {
            ref_weight += ref.get(m);
            if (m < t)
                ref_pruned += ref.get(m);
        }
        EXPECT_EQ(code.syndromeWeight(word), ref_weight);
        EXPECT_EQ(code.prunedSyndromeWeight(word), ref_pruned);
        EXPECT_EQ(code.isCodeword(word), ref_weight == 0);
    }
}

// t = 96 exercises non-word-aligned segment boundaries in every kernel.
INSTANTIATE_TEST_SUITE_P(CirculantSizes, WordParallelEquivalence,
                         ::testing::Values(64, 96, 128));

TEST(DecodeWorkspaceTest, WorkspaceDecodeMatchesDefault)
{
    const QcLdpcCode code(smallParams());
    const MinSumDecoder ms(code);
    Rng rng(800);
    DecodeWorkspace ws;
    for (int trial = 0; trial < 5; ++trial) {
        BitVec w = code.encode(randomData(code.params().k(), rng));
        injectErrors(w, 0.004, rng);
        const DecodeResult a = ms.decode(w, 0.004);
        const DecodeResult b = ms.decode(w, 0.004, ws);
        EXPECT_EQ(a.success, b.success);
        EXPECT_EQ(a.iterations, b.iterations);
        EXPECT_EQ(a.word, b.word);
    }
}

TEST(DecodeWorkspaceTest, LlrMagnitudeCachesPerRber)
{
    DecodeWorkspace ws;
    const float a = ws.llrMagnitude(0.01);
    EXPECT_EQ(ws.llrMagnitude(0.01), a);
    const float b = ws.llrMagnitude(0.02);
    EXPECT_NE(a, b);
    EXPECT_NEAR(a, std::log(0.99 / 0.01), 1e-5);
}

} // namespace
} // namespace ldpc
} // namespace rif
