/**
 * @file
 * Edge-case and robustness tests across modules: boundary inputs,
 * configuration corners and error-path behaviour that the main suites
 * do not reach.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "core/rif.h"

namespace rif {
namespace {

TEST(EdgeRng, ZipfRejectsThetaOutOfRange)
{
    EXPECT_DEATH(ZipfSampler(100, 1.5), "theta");
}

TEST(EdgeRng, ZipfSingleElement)
{
    Rng rng(1);
    ZipfSampler z(1, 0.5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(z.sample(rng), 0u);
}

TEST(EdgeBitVec, EmptyVectorOperations)
{
    BitVec v(0);
    EXPECT_EQ(v.size(), 0u);
    EXPECT_EQ(v.popcount(), 0u);
    EXPECT_EQ(v.rotl(5).size(), 0u);
    EXPECT_EQ(v, v.rotr(3));
}

TEST(EdgeBitVec, SingleBitRotation)
{
    BitVec v(1);
    v.set(0, true);
    EXPECT_EQ(v.rotl(7), v);
}

TEST(EdgeStats, PercentileOutOfRangeClamps)
{
    PercentileTracker t;
    t.add(1.0);
    t.add(2.0);
    EXPECT_DOUBLE_EQ(t.percentile(-10.0), 1.0);
    EXPECT_DOUBLE_EQ(t.percentile(250.0), 2.0);
}

TEST(EdgeStats, CdfDegenerateInputs)
{
    PercentileTracker t;
    EXPECT_TRUE(t.cdf(10).empty());
    t.add(1.0);
    EXPECT_TRUE(t.cdf(1).empty()); // fewer than 2 knots
}

TEST(EdgeLdpc, MinimumViableCirculant)
{
    // Smallest circulant for which 32 data columns can avoid 4-cycles.
    ldpc::CodeParams p;
    p.circulant = 48;
    const ldpc::QcLdpcCode code(p);
    Rng rng(2);
    const BitVec w =
        code.encode(ldpc::randomData(code.params().k(), rng));
    EXPECT_TRUE(code.isCodeword(w));
}

TEST(EdgeLdpc, DecoderHandlesAllOnesWord)
{
    ldpc::CodeParams p;
    p.circulant = 64;
    const ldpc::QcLdpcCode code(p);
    const ldpc::MinSumDecoder dec(code, 5);
    BitVec ones(code.params().n());
    for (std::size_t i = 0; i < ones.size(); ++i)
        ones.set(i, true);
    const auto res = dec.decode(ones, 0.01);
    // Must terminate cleanly whatever the verdict.
    EXPECT_LE(res.iterations, 5);
}

TEST(EdgeNand, ZeroRetentionZeroWearIsBestCase)
{
    const nand::RberModel m;
    const double best = m.rber(0.0, 0.0);
    EXPECT_GT(best, 0.0);
    for (double pe : {100.0, 1000.0})
        for (double ret : {1.0, 10.0})
            EXPECT_GT(m.rber(pe, ret), best);
}

TEST(EdgeNand, VrefSequenceMinimumSteps)
{
    const nand::VthModel vth;
    const nand::VrefSequence seq(vth, nand::PageType::Lsb, 0.0, 2, 10.0);
    EXPECT_EQ(seq.size(), 2);
    EXPECT_DOUBLE_EQ(seq.step(0).offsetVolts, 0.0);
}

TEST(EdgeOdear, DatapathRejectsMisalignedWordWidth)
{
    ldpc::CodeParams p;
    p.circulant = 96; // not a multiple of 128
    const ldpc::QcLdpcCode code(p);
    EXPECT_DEATH(odear::RpDatapath(code, 10, 128, 100.0),
                 "word-aligned");
}

TEST(EdgeOdear, PipelineWithNonZeroChunkIndex)
{
    // Chunk-based prediction may inspect any codeword of the page.
    const ldpc::QcLdpcCode code(ldpc::paperCode());
    const nand::VthModel vth;
    odear::RpConfig cfg;
    cfg.rhoS = 222;
    cfg.chunkIndex = 2;
    const odear::FunctionalPipeline pipeline(code, vth, cfg);
    Rng rng(3);
    std::vector<BitVec> payloads;
    for (int i = 0; i < 3; ++i)
        payloads.push_back(ldpc::randomData(code.params().k(), rng));
    const auto page =
        pipeline.program(payloads, 77, nand::PageType::Lsb);
    const auto res = pipeline.read(page, 0.0, 0.0, rng);
    EXPECT_TRUE(res.decodeSucceeded);
    EXPECT_EQ(res.payloads[2], payloads[2]);
}

TEST(EdgeTrace, MalformedTraceLineIsFatal)
{
    const char *path = "rif_bad_trace.csv";
    {
        std::ofstream out(path);
        out << "R,5\n"; // missing page count
    }
    EXPECT_DEATH(trace::StreamTrace st(path, trace::TraceFormat::Csv),
                 "malformed");
    std::remove(path);
}

TEST(EdgeTrace, ZeroLengthRequestIsFatal)
{
    const char *path = "rif_zero_trace.csv";
    {
        std::ofstream out(path);
        out << "R,5,0\n";
    }
    EXPECT_DEATH(trace::StreamTrace st(path, trace::TraceFormat::Csv),
                 "zero-length");
    std::remove(path);
}

TEST(EdgeSsd, SingleRequestTrace)
{
    ssd::SsdConfig cfg;
    cfg.geometry.channels = 1;
    cfg.geometry.diesPerChannel = 1;
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 64;
    trace::VectorTrace tr({{true, 0, 1}}, 64, 64);
    ssd::Ssd drive(cfg);
    const auto st = drive.run(tr);
    EXPECT_EQ(st.hostRequests, 1u);
    EXPECT_EQ(st.pageReads, 1u);
    // tR + tPRED + tDMA + tECC + host transfer: well under 100 us.
    EXPECT_LT(ticksToUs(st.makespan), 100.0);
    EXPECT_GT(ticksToUs(st.makespan), 50.0);
}

TEST(EdgeSsd, EmptyTraceWarnsAndFinishes)
{
    ssd::SsdConfig cfg;
    cfg.geometry.channels = 1;
    cfg.geometry.diesPerChannel = 1;
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 64;
    trace::VectorTrace tr({}, 64, 64);
    ssd::Ssd drive(cfg);
    const auto st = drive.run(tr);
    EXPECT_EQ(st.hostRequests, 0u);
    EXPECT_EQ(st.makespan, 0u);
}

TEST(EdgeSsd, WriteAmplificationZeroWhenNoWrites)
{
    ssd::SsdStats st;
    EXPECT_DOUBLE_EQ(st.writeAmplification(16384), 0.0);
}

TEST(EdgeExperiment, UnknownWorkloadIsFatal)
{
    Experiment e;
    EXPECT_DEATH(e.run("NotAWorkload"), "unknown workload");
}

} // namespace
} // namespace rif
