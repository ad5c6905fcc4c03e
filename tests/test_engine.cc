/**
 * @file
 * End-to-end functional tests of the RiF data path: program a page
 * through the controller pipeline (scramble, encode, rearrange), sense
 * it back with wear-driven errors, screen it with the on-die RP,
 * re-read via RVS when flagged and verify the host data is recovered
 * bit-exactly. Also covers the profiled VREF retry sequence.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ldpc/channel.h"
#include "nand/vref_table.h"
#include "odear/engine.h"
#include "odear/rp_module.h"

namespace rif {
namespace odear {
namespace {

struct PipelineFixture : public ::testing::Test
{
    PipelineFixture()
        : code(ldpc::paperCode()), vth(), rp_cfg(makeRpConfig()),
          pipeline(code, vth, rp_cfg)
    {
    }

    static RpConfig
    makeRpConfig()
    {
        static std::size_t rho = 0;
        RpConfig cfg;
        if (rho == 0) {
            static const ldpc::QcLdpcCode calib_code(ldpc::paperCode());
            rho = RpModule::calibrateThreshold(calib_code, cfg, 0.0085,
                                               30, 4242);
        }
        cfg.rhoS = rho;
        return cfg;
    }

    std::vector<BitVec>
    randomPayloads(int n, Rng &rng) const
    {
        std::vector<BitVec> out;
        for (int i = 0; i < n; ++i)
            out.push_back(ldpc::randomData(code.params().k(), rng));
        return out;
    }

    ldpc::QcLdpcCode code;
    nand::VthModel vth;
    RpConfig rp_cfg;
    FunctionalPipeline pipeline;
};

TEST_F(PipelineFixture, FreshPageRoundTripsWithoutRetry)
{
    Rng rng(1);
    const auto payloads = randomPayloads(2, rng);
    const ProgrammedPage page =
        pipeline.program(payloads, 0xfeed, nand::PageType::Lsb);

    const auto res = pipeline.read(page, 0.0, 0.0, rng);
    EXPECT_FALSE(res.predictedUncorrectable);
    EXPECT_FALSE(res.retriedOnDie);
    ASSERT_TRUE(res.decodeSucceeded);
    ASSERT_EQ(res.payloads.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i)
        EXPECT_EQ(res.payloads[i], payloads[i]) << "payload " << i;
}

TEST_F(PipelineFixture, AgedPageRetriesOnDieAndStillRecoversData)
{
    // 1K P/E + 20 days: RBER far above the capability at default VREF.
    Rng rng(2);
    const auto payloads = randomPayloads(2, rng);
    const ProgrammedPage page =
        pipeline.program(payloads, 0xbeef, nand::PageType::Msb);

    ASSERT_GT(vth.pageRber(nand::PageType::Msb, 1000.0, 20.0), 0.0085);
    const auto res = pipeline.read(page, 1000.0, 20.0, rng);
    EXPECT_TRUE(res.predictedUncorrectable)
        << "chunk weight " << res.chunkSyndromeWeight << " vs rho_s "
        << rp_cfg.rhoS;
    EXPECT_TRUE(res.retriedOnDie);
    EXPECT_LT(res.reReadRber, res.firstSenseRber / 2.0);
    ASSERT_TRUE(res.decodeSucceeded)
        << "re-read RBER " << res.reReadRber;
    for (std::size_t i = 0; i < payloads.size(); ++i)
        EXPECT_EQ(res.payloads[i], payloads[i]) << "payload " << i;
}

TEST_F(PipelineFixture, ModeratelyAgedPageDecodesWithoutRetry)
{
    // A few days of retention: errors present but under the capability,
    // so the RP lets the page straight through and decoding succeeds.
    Rng rng(3);
    const auto payloads = randomPayloads(1, rng);
    const ProgrammedPage page =
        pipeline.program(payloads, 0xcafe, nand::PageType::Lsb);

    ASSERT_LT(vth.pageRber(nand::PageType::Lsb, 200.0, 3.0), 0.0085);
    const auto res = pipeline.read(page, 200.0, 3.0, rng);
    EXPECT_GT(res.firstSenseRber, 0.0);
    EXPECT_FALSE(res.retriedOnDie);
    ASSERT_TRUE(res.decodeSucceeded);
    EXPECT_EQ(res.payloads[0], payloads[0]);
}

TEST_F(PipelineFixture, ScramblingIsolatesPages)
{
    // The same payload programmed with different page seeds stores
    // different flash bits (worst-case data patterns are broken up).
    Rng rng(4);
    const auto payloads = randomPayloads(1, rng);
    const ProgrammedPage a =
        pipeline.program(payloads, 111, nand::PageType::Lsb);
    const ProgrammedPage b =
        pipeline.program(payloads, 222, nand::PageType::Lsb);
    BitVec diff = a.flashCodewords[0];
    diff.xorWith(b.flashCodewords[0]);
    EXPECT_GT(diff.popcount(), code.params().n() / 4);
}

TEST(VrefSequence, ProfiledOffsetsDeepenMonotonically)
{
    const nand::VthModel vth;
    const nand::VrefSequence seq(vth, nand::PageType::Msb, 1000.0, 6,
                                 30.0);
    ASSERT_EQ(seq.size(), 6);
    EXPECT_DOUBLE_EQ(seq.step(0).offsetVolts, 0.0);
    for (int k = 1; k < seq.size(); ++k) {
        EXPECT_LE(seq.step(k).offsetVolts, seq.step(k - 1).offsetVolts)
            << "deeper retention needs lower read voltages";
    }
    EXPECT_LT(seq.step(seq.size() - 1).offsetVolts, -0.05);
}

TEST(VrefSequence, LaterStepsServeOlderData)
{
    const nand::VthModel vth;
    const nand::VrefSequence seq(vth, nand::PageType::Msb, 1000.0, 6,
                                 30.0);
    // At 20 days the default read is hopeless but some later step
    // recovers an RBER below the capability.
    EXPECT_GT(seq.rberAtStep(0, 1000.0, 20.0), 0.0085);
    const int rounds = seq.roundsUntilDecodable(1000.0, 20.0, 0.0085);
    EXPECT_GT(rounds, 0);
    EXPECT_LT(rounds, seq.size());
    EXPECT_LE(seq.rberAtStep(rounds, 1000.0, 20.0), 0.0085);
}

TEST(VrefSequence, NrrGrowsWithRetention)
{
    const nand::VthModel vth;
    const nand::VrefSequence seq(vth, nand::PageType::Csb, 1000.0, 8,
                                 30.0);
    const int young = seq.roundsUntilDecodable(1000.0, 5.0, 0.0085);
    const int old = seq.roundsUntilDecodable(1000.0, 25.0, 0.0085);
    EXPECT_LE(young, old);
}

TEST(VrefSequence, FreshDataNeedsNoRetry)
{
    const nand::VthModel vth;
    const nand::VrefSequence seq(vth, nand::PageType::Lsb, 0.0, 6, 30.0);
    EXPECT_EQ(seq.roundsUntilDecodable(0.0, 0.5, 0.0085), 0);
}

} // namespace
} // namespace odear
} // namespace rif
