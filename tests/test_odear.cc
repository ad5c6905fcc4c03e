/**
 * @file
 * Tests of the ODEAR engine: the codeword rearrangement equivalence (the
 * central hardware-enabling identity of §V-B), RP prediction behaviour
 * and calibration, the RVS Swift-Read estimator, the accuracy
 * experiments and the PPA/energy overhead model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "ldpc/channel.h"
#include "nand/vth_model.h"
#include "odear/accuracy.h"
#include "odear/overhead.h"
#include "odear/rearrange.h"
#include "odear/rp_module.h"
#include "odear/rvs_cost.h"
#include "odear/rvs_module.h"

namespace rif {
namespace odear {
namespace {

ldpc::CodeParams
smallParams(int t = 64)
{
    ldpc::CodeParams p;
    p.circulant = t;
    return p;
}

class RearrangeSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(RearrangeSizes, LayoutRoundTrips)
{
    const ldpc::QcLdpcCode code(smallParams(GetParam()));
    Rng rng(1);
    const BitVec word =
        code.encode(ldpc::randomData(code.params().k(), rng));
    const CodewordRearranger rr(code);
    const BitVec flash = rr.toFlashLayout(word);
    EXPECT_EQ(rr.toControllerLayout(flash), word);
    // Rearrangement permutes within segments: popcount preserved.
    EXPECT_EQ(flash.popcount(), word.popcount());
}

TEST_P(RearrangeSizes, OnDieWeightEqualsPrunedSyndromeWeight)
{
    // The key identity: XOR-of-rotated-segments + popcount computes
    // exactly the first t syndromes of the original layout.
    const ldpc::QcLdpcCode code(smallParams(GetParam()));
    const CodewordRearranger rr(code);
    Rng rng(2);
    for (double rber : {0.0, 0.002, 0.01, 0.05}) {
        BitVec word =
            code.encode(ldpc::randomData(code.params().k(), rng));
        ldpc::injectErrors(word, rber, rng);
        const BitVec flash = rr.toFlashLayout(word);
        EXPECT_EQ(rr.onDieSyndromeWeight(flash),
                  code.prunedSyndromeWeight(word))
            << "rber=" << rber;
    }
}

INSTANTIATE_TEST_SUITE_P(CirculantSizes, RearrangeSizes,
                         ::testing::Values(64, 96, 128));

TEST(Rearrange, CleanCodewordHasZeroOnDieWeight)
{
    const ldpc::QcLdpcCode code(smallParams());
    const CodewordRearranger rr(code);
    Rng rng(3);
    const BitVec word =
        code.encode(ldpc::randomData(code.params().k(), rng));
    EXPECT_EQ(rr.onDieSyndromeWeight(rr.toFlashLayout(word)),
              0u);
}

TEST(RpModule, PredictsCleanAndHeavilyCorruptedCorrectly)
{
    const ldpc::QcLdpcCode code(smallParams());
    RpConfig cfg;
    cfg.rhoS = RpModule::calibrateThreshold(code, cfg, 0.0085, 40, 77);
    const RpModule rp(code, cfg);
    const CodewordRearranger rr(code);
    Rng rng(4);

    const BitVec clean =
        code.encode(ldpc::randomData(code.params().k(), rng));
    EXPECT_FALSE(rp.predictRetry(rr.toFlashLayout(clean)));

    BitVec bad = clean;
    ldpc::injectErrors(bad, 0.05, rng);
    EXPECT_TRUE(rp.predictRetry(rr.toFlashLayout(bad)));
}

TEST(RpModule, CalibratedThresholdScalesWithRber)
{
    const ldpc::QcLdpcCode code(smallParams());
    RpConfig cfg;
    const auto low =
        RpModule::calibrateThreshold(code, cfg, 0.004, 30, 5);
    const auto high =
        RpModule::calibrateThreshold(code, cfg, 0.012, 30, 5);
    EXPECT_GT(high, low);
    EXPECT_GT(low, 0u);
}

TEST(RpModule, WithoutPruningUsesFullSyndrome)
{
    const ldpc::QcLdpcCode code(smallParams());
    RpConfig pruned;
    RpConfig full;
    full.usePruning = false;
    const RpModule rp_pruned(code, pruned);
    const RpModule rp_full(code, full);
    const CodewordRearranger rr(code);
    Rng rng(6);
    BitVec word =
        code.encode(ldpc::randomData(code.params().k(), rng));
    ldpc::injectErrors(word, 0.01, rng);
    const BitVec flash = rr.toFlashLayout(word);
    EXPECT_EQ(rp_full.computedWeight(flash), code.syndromeWeight(word));
    EXPECT_EQ(rp_pruned.computedWeight(flash),
              code.prunedSyndromeWeight(word));
    EXPECT_GT(rp_full.computedWeight(flash),
              rp_pruned.computedWeight(flash));
}

/** Stage `count` noisy codewords and check every slot's weight and
 *  retry decision against the scalar datapath. */
void
checkStagerEquivalence(bool use_pruning, std::size_t count)
{
    const ldpc::QcLdpcCode code(smallParams());
    RpConfig cfg;
    cfg.usePruning = use_pruning;
    const RpModule rp(code, cfg);
    const CodewordRearranger &rr = rp.rearranger();
    RpSyndromeStager stager(rp);
    Rng rng(41);
    std::vector<BitVec> flashes;
    flashes.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        BitVec word =
            code.encode(ldpc::randomData(code.params().k(), rng));
        ldpc::injectErrors(word, 0.002 + 0.004 * (i % 3), rng);
        flashes.push_back(rr.toFlashLayout(word));
        EXPECT_EQ(stager.stage(flashes.back()), i);
    }
    stager.flush();
    ASSERT_EQ(stager.staged(), count);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(stager.weight(i), rp.computedWeight(flashes[i]))
            << "pruning=" << use_pruning << " slot " << i << "/" << count;
        EXPECT_EQ(stager.retry(i), rp.predictRetry(flashes[i]));
    }
}

TEST(RpSyndromeStager, MatchesScalarDatapathAcrossBatchSizes)
{
    // 1 and 3 exercise the scalar tail alone, 8 exactly one full
    // vector group, 64 eight full groups — with and without pruning
    // (the two kernels behind flushGroup()).
    for (const std::size_t count : {std::size_t(1), std::size_t(3),
                                    std::size_t(8), std::size_t(64)}) {
        checkStagerEquivalence(true, count);
        checkStagerEquivalence(false, count);
    }
}

TEST(RpSyndromeStager, MixedGroupAndTailPreserveStagingOrder)
{
    // 11 = one full group + a 3-lane tail; slots must read back in
    // staging order across the kernel boundary.
    checkStagerEquivalence(true, 11);
    checkStagerEquivalence(false, 11);
}

TEST(RpSyndromeStager, ResetRecyclesWithoutStaleResults)
{
    const ldpc::QcLdpcCode code(smallParams());
    const RpModule rp(code, RpConfig{});
    const CodewordRearranger &rr = rp.rearranger();
    RpSyndromeStager stager(rp);
    Rng rng(43);
    for (int cycle = 0; cycle < 3; ++cycle) {
        stager.reset();
        EXPECT_EQ(stager.staged(), 0u);
        std::vector<BitVec> flashes;
        for (std::size_t i = 0; i < 5; ++i) {
            BitVec word =
                code.encode(ldpc::randomData(code.params().k(), rng));
            ldpc::injectErrors(word, 0.01, rng);
            flashes.push_back(rr.toFlashLayout(word));
            stager.stage(flashes.back());
        }
        stager.flush();
        for (std::size_t i = 0; i < flashes.size(); ++i)
            EXPECT_EQ(stager.weight(i), rp.computedWeight(flashes[i]));
    }
}

TEST(RpModule, PredictionLatencyMatchesPaper)
{
    const ldpc::QcLdpcCode code(smallParams());
    const RpModule rp(code, RpConfig{});
    // ~2.5 us for a 4-KiB chunk (paper §V, [43]).
    const double us = ticksToUs(rp.predictionLatency(4096));
    EXPECT_NEAR(us, 2.5, 0.3);
    // Latency scales with the inspected chunk.
    EXPECT_LT(rp.predictionLatency(1024), rp.predictionLatency(4096));
}

TEST(RpAccuracy, HighAwayFromCapabilityOnSmallCode)
{
    // The small code's capability differs from the paper's but the
    // qualitative behaviour must hold: near-perfect prediction far from
    // the threshold.
    const ldpc::QcLdpcCode code(smallParams());
    const ldpc::MinSumDecoder dec(code, 15);
    RpConfig cfg;
    cfg.rhoS = RpModule::calibrateThreshold(code, cfg, 0.009, 40, 9);
    const RpModule rp(code, cfg);
    AccuracySweepConfig sweep;
    sweep.rbers = {0.001, 0.05};
    sweep.trials = 30;
    const auto pts = measureRpAccuracy(code, rp, dec, sweep);
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_GT(pts[0].accuracy, 0.95); // clearly decodable
    EXPECT_GT(pts[1].accuracy, 0.95); // clearly undecodable
    EXPECT_LT(pts[0].decodeFailureRate, 0.05);
    EXPECT_GT(pts[1].decodeFailureRate, 0.95);
}

TEST(RpAccuracy, AccuracyAboveCapabilityAverages)
{
    std::vector<AccuracyPoint> pts(3);
    pts[0].rber = 0.004;
    pts[0].accuracy = 0.5;
    pts[1].rber = 0.010;
    pts[1].accuracy = 0.98;
    pts[2].rber = 0.020;
    pts[2].accuracy = 1.0;
    EXPECT_NEAR(accuracyAboveCapability(pts, 0.0085), 0.99, 1e-12);
    EXPECT_EQ(accuracyAboveCapability(pts, 1.0), 0.0);
}

TEST(RpBehaviorModel, ProbabilitiesAreSharpAroundCapability)
{
    const RpBehaviorModel bm(0.0085, 36864.0, 1024.0 * 33.0);
    EXPECT_LT(bm.failureProbability(0.004), 0.01);
    EXPECT_GT(bm.failureProbability(0.013), 0.99);
    EXPECT_NEAR(bm.failureProbability(0.0085), 0.5, 0.02);
    EXPECT_NEAR(bm.retryPredictionProbability(0.0085), 0.5, 0.02);
    // Monotone.
    EXPECT_LT(bm.failureProbability(0.007), bm.failureProbability(0.009));
}

TEST(RpBehaviorModel, SampledOutcomesMatchProbabilities)
{
    const RpBehaviorModel bm(0.0085, 36864.0, 1024.0 * 33.0);
    Rng rng(10);
    for (double rber : {0.006, 0.0085, 0.011}) {
        int fails = 0, preds = 0;
        const int n = 20000;
        for (int i = 0; i < n; ++i) {
            const auto o = bm.sample(rber, rng);
            fails += !o.decodable;
            preds += o.rpPredictsRetry;
        }
        EXPECT_NEAR(fails / double(n), bm.failureProbability(rber), 0.02);
        EXPECT_NEAR(preds / double(n),
                    bm.retryPredictionProbability(rber), 0.02);
    }
}

TEST(RpBehaviorModel, PredictionsCorrelateWithOutcomes)
{
    // Away from the capability the prediction must agree with the
    // decoder outcome almost always (the paper's 98.7%).
    const RpBehaviorModel bm(0.0085, 36864.0, 1024.0 * 33.0);
    Rng rng(11);
    int correct = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double rber = (i % 2) ? 0.005 : 0.013;
        const auto o = bm.sample(rber, rng);
        correct += (o.rpPredictsRetry == !o.decodable);
    }
    EXPECT_GT(correct / double(n), 0.97);
}

TEST(RvsModule, RecoversNearOptimalRber)
{
    const nand::VthModel vth;
    const RvsModule rvs(vth);
    Rng rng(12);
    for (const nand::PageType t :
         {nand::PageType::Lsb, nand::PageType::Csb, nand::PageType::Msb}) {
        const auto sel = rvs.select(t, 1000.0, 20.0, rng);
        const double stale = vth.pageRber(t, 1000.0, 20.0);
        // Within 2x of the true optimum and far below the stale read.
        EXPECT_LT(sel.predictedRber, 2.0 * sel.optimalRber + 1e-4);
        EXPECT_LT(sel.predictedRber, stale / 2.0);
        EXPECT_LT(sel.predictedRber, 0.0085)
            << "re-read must land below the ECC capability";
    }
}

TEST(RvsModule, FreshPageSelectionStaysNearDefault)
{
    const nand::VthModel vth;
    const RvsModule rvs(vth);
    Rng rng(13);
    const auto sel = rvs.select(nand::PageType::Msb, 0.0, 0.0, rng);
    for (int i : nand::msbThresholds())
        EXPECT_NEAR(sel.vref[i], vth.defaultVref(i), 0.05);
}

TEST(RvsModule, NoisierCounterIsLessAccurate)
{
    const nand::VthModel vth;
    const RvsModule fine(vth, 131072);
    const RvsModule coarse(vth, 256);
    Rng rng_a(14), rng_b(14);
    double fine_err = 0.0, coarse_err = 0.0;
    for (int i = 0; i < 20; ++i) {
        const auto a = fine.select(nand::PageType::Csb, 500.0, 15.0, rng_a);
        const auto b =
            coarse.select(nand::PageType::Csb, 500.0, 15.0, rng_b);
        fine_err += a.predictedRber - a.optimalRber;
        coarse_err += b.predictedRber - b.optimalRber;
    }
    EXPECT_LT(fine_err, coarse_err);
}

TEST(OverheadModel, PaperConstants)
{
    const OverheadModel m;
    // 0.012 mm^2 on a 101 mm^2 die: ~0.012% area.
    EXPECT_NEAR(m.areaOverheadFraction(), 0.012 / 101.0, 1e-9);
    // Break-even: 907 / 3.2 ~ 283 reads per avoided transfer.
    EXPECT_NEAR(m.breakEvenReadsPerRetry(), 283.4, 0.5);
}

TEST(OverheadModel, EnergyAccounting)
{
    const OverheadModel m;
    // 1000 reads, no retries: pure prediction cost.
    EXPECT_NEAR(m.netEnergyNj(1000, 0), 3200.0, 1e-9);
    // Frequent retries: large net savings.
    EXPECT_LT(m.netEnergyNj(1000, 500), 0.0);
}

// ---------------------------------------------------------------------
// RvsCostEngine: the priced host-side tracking alternative.
// ---------------------------------------------------------------------

TEST(RvsCostEngine, CharacterizationWindowMath)
{
    const nand::VthModel model;
    RvsCostParams p;
    p.recharacterizeDays = 2.0;
    const RvsCostEngine engine(model, p);
    EXPECT_DOUBLE_EQ(engine.lastCharacterizationAge(0.5), 0.0);
    EXPECT_DOUBLE_EQ(engine.lastCharacterizationAge(2.0), 2.0);
    EXPECT_DOUBLE_EQ(engine.lastCharacterizationAge(4.7), 4.0);
    EXPECT_DOUBLE_EQ(engine.staleDays(4.7), 0.7);
    EXPECT_DOUBLE_EQ(engine.staleDays(6.0), 0.0);
}

TEST(RvsCostEngine, FreshCharacterizationMatchesOptimal)
{
    // Right at a characterization age the tracked VREFs are exactly
    // the optimal ones, so the tracked RBER equals the optimum.
    const nand::VthModel model;
    RvsCostParams p;
    p.recharacterizeDays = 2.0;
    const RvsCostEngine engine(model, p);
    for (const double age : {2.0, 4.0, 8.0})
        EXPECT_DOUBLE_EQ(
            engine.rberAtTrackedVref(nand::PageType::Msb, 1000.0, age),
            model.pageRberOptimal(nand::PageType::Msb, 1000.0, age));
}

TEST(RvsCostEngine, StaleVrefDegradesTowardDefault)
{
    const nand::VthModel model;
    RvsCostParams p;
    p.recharacterizeDays = 8.0;
    const RvsCostEngine engine(model, p);
    const nand::PageType t = nand::PageType::Msb;
    // Mid-window: strictly between the optimum and the default VREF.
    const double tracked = engine.rberAtTrackedVref(t, 1000.0, 14.0);
    EXPECT_GT(tracked, model.pageRberOptimal(t, 1000.0, 14.0));
    EXPECT_LT(tracked, model.pageRber(t, 1000.0, 14.0));
    // Staleness is monotone inside one characterization window.
    EXPECT_LT(engine.rberAtTrackedVref(t, 1000.0, 9.0),
              engine.rberAtTrackedVref(t, 1000.0, 12.0));
    EXPECT_LT(engine.rberAtTrackedVref(t, 1000.0, 12.0),
              engine.rberAtTrackedVref(t, 1000.0, 15.9));
}

TEST(RvsCostEngine, ReadCostAccounting)
{
    const nand::VthModel model;
    RvsCostParams p;
    p.recharacterizeDays = 2.0;
    p.samplesPerThreshold = 5;
    p.sampleReadUs = 40.0;
    const RvsCostEngine engine(model, p);
    // TLC: Lsb reads 2 thresholds, Csb 3, Msb 2.
    EXPECT_EQ(engine.characterizationReads(nand::PageType::Lsb), 10);
    EXPECT_EQ(engine.characterizationReads(nand::PageType::Csb), 15);
    EXPECT_EQ(engine.characterizationReads(nand::PageType::Msb), 10);
    EXPECT_DOUBLE_EQ(engine.characterizationUs(nand::PageType::Csb),
                     600.0);
    // 600 us amortized over 1000 reads/day x 2 days.
    EXPECT_DOUBLE_EQ(
        engine.amortizedUsPerRead(nand::PageType::Csb, 1000.0), 0.3);
}

TEST(RvsCostEngine, QlcCharacterizationCostsMore)
{
    const nand::VthModel qlc(nand::CellType::Qlc);
    const RvsCostEngine engine(qlc);
    // 15 thresholds spread over 4 page types vs TLC's 7 over 3: the
    // per-campaign calibration bill grows with the state count.
    int qlc_reads = 0;
    for (int ty = 0; ty < nand::pageTypesOf(nand::CellType::Qlc); ++ty)
        qlc_reads += engine.characterizationReads(nand::PageType(ty));
    const nand::VthModel tlc;
    const RvsCostEngine tlc_engine(tlc);
    int tlc_reads = 0;
    for (int ty = 0; ty < nand::pageTypesOf(nand::CellType::Tlc); ++ty)
        tlc_reads +=
            tlc_engine.characterizationReads(nand::PageType(ty));
    EXPECT_EQ(qlc_reads, 15 * engine.params().samplesPerThreshold);
    EXPECT_EQ(tlc_reads, 7 * tlc_engine.params().samplesPerThreshold);
}

TEST(RvsCostEngine, EvaluationIsDeterministic)
{
    // The engine is pure arithmetic over the V_TH model: two engines
    // walking the same age schedule must produce bit-identical sums
    // (the rvs_cadence golden depends on this).
    const nand::VthModel model(nand::CellType::Qlc);
    const auto walk = [&model]() {
        const RvsCostEngine engine(model);
        double acc = 0.0;
        for (int i = 0; i < 64; ++i) {
            const double age = 0.37 * i;
            for (int ty = 0;
                 ty < nand::pageTypesOf(nand::CellType::Qlc); ++ty) {
                acc += engine.rberAtTrackedVref(nand::PageType(ty),
                                                1000.0, age);
                engine.recordTrackedRead(nand::PageType(ty), age);
            }
        }
        return acc;
    };
    EXPECT_EQ(walk(), walk());
}

} // namespace
} // namespace odear
} // namespace rif
