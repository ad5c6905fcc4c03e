/**
 * @file
 * Tests of the NAND substrate: geometry arithmetic, V_TH model physics
 * (state ordering, wear-driven degradation, optimal-VREF recovery), the
 * calibrated parametric RBER model (monotonicity, Fig. 4 anchors), block
 * characterization tables and the data randomizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "nand/characterization.h"
#include "nand/geometry.h"
#include "nand/randomizer.h"
#include "nand/rber_model.h"
#include "nand/vth_model.h"

namespace rif {
namespace nand {
namespace {

TEST(Geometry, TableOneCapacity)
{
    const Geometry g; // paper defaults
    EXPECT_EQ(g.totalDies(), 32u);
    EXPECT_EQ(g.totalPlanes(), 128u);
    EXPECT_EQ(g.pagesPerPlane(), 1888u * 576u);
    // 8 ch x 4 dies x 4 planes x 1888 blocks x 576 pages x 16 KiB ~ 2 TiB.
    EXPECT_NEAR(static_cast<double>(g.capacityBytes()) /
                    static_cast<double>(kGiB * 1024),
                2.0, 0.15);
}

TEST(Geometry, PageTypesCycle)
{
    EXPECT_EQ(pageTypeOf(0), PageType::Lsb);
    EXPECT_EQ(pageTypeOf(1), PageType::Csb);
    EXPECT_EQ(pageTypeOf(2), PageType::Msb);
    EXPECT_EQ(pageTypeOf(3), PageType::Lsb);
}

TEST(Timing, PaperDefaults)
{
    const Timing t;
    EXPECT_EQ(t.tR, usToTicks(40.0));
    EXPECT_EQ(t.tProg, usToTicks(400.0));
    EXPECT_EQ(t.tErase, usToTicks(3500.0));
    EXPECT_EQ(t.tDmaPage, usToTicks(13.0));
    EXPECT_EQ(t.tPred, usToTicks(2.5));
}

TEST(VthModel, FreshStatesAreOrderedAndSeparated)
{
    const VthModel m;
    const auto st = m.states(0.0, 0.0);
    for (int s = 1; s < kStates; ++s) {
        EXPECT_GT(st[s].mean, st[s - 1].mean);
        EXPECT_GT(st[s].sigma, 0.0);
    }
    // Programmed states should be well separated relative to sigma.
    for (int s = 2; s < kStates; ++s) {
        EXPECT_GT(st[s].mean - st[s - 1].mean, 4.0 * st[s].sigma);
    }
}

TEST(VthModel, RetentionShiftsStatesDown)
{
    const VthModel m;
    const auto fresh = m.states(0.0, 0.0);
    const auto aged = m.states(0.0, 20.0);
    for (int s = 1; s < kStates; ++s)
        EXPECT_LT(aged[s].mean, fresh[s].mean);
    // Higher states lose more charge.
    EXPECT_GT(fresh[7].mean - aged[7].mean, fresh[1].mean - aged[1].mean);
}

TEST(VthModel, WearWidensDistributions)
{
    const VthModel m;
    EXPECT_GT(m.states(2000.0, 0.0)[3].sigma, m.states(0.0, 0.0)[3].sigma);
    EXPECT_GT(m.states(0.0, 25.0)[3].sigma, m.states(0.0, 0.0)[3].sigma);
}

TEST(VthModel, DefaultVrefSitsBetweenFreshStates)
{
    const VthModel m;
    const auto st = m.states(0.0, 0.0);
    for (int i = 1; i <= kThresholds; ++i) {
        const double v = m.defaultVref(i);
        EXPECT_GT(v, st[i - 1].mean);
        EXPECT_LT(v, st[i].mean);
    }
}

TEST(VthModel, RberGrowsWithRetentionAndWear)
{
    const VthModel m;
    for (const PageType t :
         {PageType::Lsb, PageType::Csb, PageType::Msb}) {
        EXPECT_LT(m.pageRber(t, 0.0, 0.0), m.pageRber(t, 0.0, 20.0));
        EXPECT_LT(m.pageRber(t, 0.0, 10.0), m.pageRber(t, 2000.0, 10.0));
    }
}

TEST(VthModel, OptimalVrefRestoresLowRber)
{
    const VthModel m;
    const double stale = m.pageRber(PageType::Msb, 1000.0, 20.0);
    const double optimal = m.pageRberOptimal(PageType::Msb, 1000.0, 20.0);
    EXPECT_LT(optimal, stale / 2.0);
    // The paper's premise: a near-optimal re-read lands well below the
    // ECC capability within the refresh window.
    EXPECT_LT(optimal, 0.0085);
}

TEST(VthModel, OnesFractionMatchesUniformOccupancy)
{
    const VthModel m;
    for (int i = 1; i <= kThresholds; ++i) {
        const double f = m.onesFraction(i, m.defaultVref(i), 0.0, 0.0);
        EXPECT_NEAR(f, m.expectedOnesFraction(i), 0.01)
            << "threshold " << i;
    }
}

TEST(VthModel, OnesFractionRisesWithRetention)
{
    const VthModel m;
    // Charge loss moves cells below the threshold: more conduct.
    const double fresh = m.onesFraction(5, m.defaultVref(5), 0.0, 0.0);
    const double aged = m.onesFraction(5, m.defaultVref(5), 1000.0, 20.0);
    EXPECT_GT(aged, fresh);
}

class RberMonotonic
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(RberMonotonic, MonotoneInEveryOperand)
{
    const auto [pe, ret] = GetParam();
    const RberModel m;
    EXPECT_LT(m.rber(pe, ret), m.rber(pe + 250.0, ret));
    EXPECT_LT(m.rber(pe, ret), m.rber(pe, ret + 5.0));
    EXPECT_LT(m.rber(pe, ret, 0), m.rber(pe, ret, 1000000));
    EXPECT_GT(m.rber(pe, ret), 0.0);
    EXPECT_LT(m.rber(pe, ret), 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RberMonotonic,
    ::testing::Combine(::testing::Values(0.0, 500.0, 1000.0, 2000.0),
                       ::testing::Values(0.0, 5.0, 15.0, 30.0)));

TEST(RberModel, Fig4RetentionAnchors)
{
    const RberModel m;
    // Median block, averaged page behaviour: the paper's characterized
    // thresholds are ~17/14/10/8 days at 0/200/500/1000 P/E. Allow a
    // +-3 day band — shape, not exact values, is what matters.
    auto threshold = [&](double pe) {
        double sum = 0.0;
        for (int t = 0; t < kPageTypes; ++t)
            sum += m.retentionUntilCapability(pe,
                                              static_cast<PageType>(t));
        return sum / kPageTypes;
    };
    EXPECT_NEAR(threshold(0.0), 17.0, 3.0);
    EXPECT_NEAR(threshold(200.0), 14.0, 3.0);
    EXPECT_NEAR(threshold(500.0), 10.0, 3.0);
    EXPECT_NEAR(threshold(1000.0), 8.0, 3.0);
    // Strictly decreasing with wear.
    EXPECT_GT(threshold(0.0), threshold(500.0));
    EXPECT_GT(threshold(500.0), threshold(2000.0));
}

TEST(RberModel, FreshDriveStillRetries)
{
    // Fig. 4's 0-P/E row: even a fresh drive crosses the capability
    // within the JEDEC-scale retention window.
    const RberModel m;
    const double t =
        m.retentionUntilCapability(0.0, PageType::Csb);
    EXPECT_LT(t, 30.0);
    EXPECT_GT(t, 5.0);
}

TEST(RberModel, BlockFactorsAreLognormalAroundOne)
{
    const RberModel m;
    Rng rng(3);
    constexpr int kN = 20000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < kN; ++i) {
        const double f = m.sampleBlockFactor(rng);
        sum += f;
        sq += f * f;
    }
    const double mean = sum / kN;
    EXPECT_NEAR(mean, 1.0, 0.02);
    EXPECT_GT(std::sqrt(sq / kN - mean * mean), 0.03);
}

TEST(RberModel, PageTypeOrdering)
{
    const RberModel m;
    // CSB reads three thresholds and carries the largest multiplier.
    const double lsb = m.rber(500.0, 10.0, 0, PageType::Lsb, 1.0);
    const double csb = m.rber(500.0, 10.0, 0, PageType::Csb, 1.0);
    EXPECT_GT(csb, lsb);
}

TEST(CrossModel, VthAndParametricAgreeOnRetryOnset)
{
    // The two RBER substrates are independent constructions; both must
    // place the capability crossing of an aged page in the same
    // retention ballpark (within a factor of two) at every wear level.
    const VthModel vth;
    const RberModel par;
    for (double pe : {0.0, 500.0, 1000.0, 2000.0}) {
        const double par_days =
            par.retentionUntilCapability(pe, PageType::Csb);
        // Bisection on the V_TH model for the CSB page.
        double lo = 0.0, hi = 64.0;
        if (vth.pageRber(PageType::Csb, pe, hi) < 0.0085)
            continue; // never crosses at this wear; nothing to compare
        for (int i = 0; i < 50; ++i) {
            const double mid = 0.5 * (lo + hi);
            if (vth.pageRber(PageType::Csb, pe, mid) < 0.0085)
                lo = mid;
            else
                hi = mid;
        }
        const double vth_days = 0.5 * (lo + hi);
        EXPECT_LT(par_days, 2.0 * vth_days + 2.0) << "pe=" << pe;
        EXPECT_GT(par_days, vth_days / 2.0 - 2.0) << "pe=" << pe;
    }
}

TEST(Randomizer, IsAnInvolution)
{
    Rng rng(4);
    BitVec data(4096);
    for (std::size_t i = 0; i < data.size(); ++i)
        data.set(i, rng.chance(0.3));
    const BitVec original = data;
    const Randomizer r(0x1234abcd);
    r.apply(data);
    EXPECT_NE(data, original);
    r.apply(data);
    EXPECT_EQ(data, original);
}

TEST(Randomizer, ScrambledDataIsBalanced)
{
    // Even pathological all-zero host data programs as ~50% ones — the
    // uniformity property Swift-Read and chunk prediction rely on.
    BitVec zeros(1 << 16);
    Randomizer(0xfeed).apply(zeros);
    EXPECT_NEAR(static_cast<double>(zeros.popcount()) /
                    static_cast<double>(zeros.size()),
                0.5, 0.02);
}

TEST(Randomizer, DifferentSeedsDifferentKeystreams)
{
    BitVec a(4096), b(4096);
    Randomizer(1).apply(a);
    Randomizer(2).apply(b);
    a.xorRange(0, b, 0, b.size());
    EXPECT_GT(a.popcount(), 1000u);
}

TEST(BlockPopulation, SampleSizeAndSpread)
{
    const RberModel m;
    CharacterizationConfig cfg;
    cfg.chips = 20;
    cfg.blocksPerChip = 16;
    const BlockPopulation pop(m, cfg);
    ASSERT_EQ(pop.factors().size(), 320u);
    const auto th = pop.retentionThresholds(1000.0);
    ASSERT_EQ(th.size(), 320u);
    double lo = 1e9, hi = 0.0;
    for (double d : th) {
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    EXPECT_GT(hi, lo); // process variation spreads the threshold
}

TEST(BlockPopulation, ProportionsFormADistribution)
{
    const RberModel m;
    CharacterizationConfig cfg;
    cfg.chips = 10;
    cfg.blocksPerChip = 16;
    const BlockPopulation pop(m, cfg);
    const auto thresholds = pop.retentionThresholds(500.0);
    double total = 0.0;
    for (int day = 0; day < 40; ++day)
        total += proportionInDayBin(thresholds, day);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ChunkSimilarity, SmallerChunksSpreadMore)
{
    const RberModel m;
    Rng rng(5);
    const double rber = m.rber(1000.0, 10.0);
    const auto c4 =
        measureChunkSimilarity(rber, 16384, 4096, 60, 0.01, rng);
    const auto c1 =
        measureChunkSimilarity(rber, 16384, 1024, 60, 0.01, rng);
    EXPECT_GT(c1.maxSpread, c4.maxSpread);
    EXPECT_GT(c4.maxSpread, 0.0);
    EXPECT_LT(c4.meanSpread, c4.maxSpread + 1e-12);
}

// ---------------------------------------------------------------------
// Cell model: the SLC/TLC/QLC generalization.
// ---------------------------------------------------------------------

TEST(CellModel, GeometryOfEachCellType)
{
    EXPECT_EQ(bitsPerCell(CellType::Slc), 1);
    EXPECT_EQ(bitsPerCell(CellType::Tlc), 3);
    EXPECT_EQ(bitsPerCell(CellType::Qlc), 4);
    for (CellType cell : kAllCellTypes) {
        EXPECT_EQ(statesOf(cell), 1 << bitsPerCell(cell));
        EXPECT_EQ(thresholdsOf(cell), statesOf(cell) - 1);
        EXPECT_EQ(parseCellType(cellTypeName(cell)), cell);
    }
    EXPECT_FALSE(parseCellType("mlc").has_value());
    EXPECT_FALSE(parseCellType("TLC").has_value());
}

TEST(CellModel, PageThresholdsPartitionTheWindow)
{
    // Every cell's page types must read disjoint threshold subsets
    // whose union is exactly {1, ..., thresholds}: each threshold
    // decides one bit of the cell, and each bit lands on one page.
    for (CellType cell : kAllCellTypes) {
        std::vector<int> seen(thresholdsOf(cell) + 1, 0);
        for (int ty = 0; ty < pageTypesOf(cell); ++ty)
            for (int i : pageThresholds(cell, PageType(ty))) {
                ASSERT_GE(i, 1);
                ASSERT_LE(i, thresholdsOf(cell));
                ++seen[i];
            }
        for (int i = 1; i <= thresholdsOf(cell); ++i)
            EXPECT_EQ(seen[i], 1) << cellTypeName(cell)
                                  << " threshold " << i;
    }
}

TEST(CellModel, TlcPathMatchesLegacyFreeFunctions)
{
    // The parameterized model must be the historical TLC chain when
    // asked for TLC — this is what keeps the 25 goldens byte-frozen.
    const VthModel legacy;
    const VthModel tlc(CellType::Tlc);
    EXPECT_EQ(legacy.cellType(), CellType::Tlc);
    EXPECT_EQ(tlc.numStates(), kStates);
    EXPECT_EQ(tlc.numThresholds(), kThresholds);
    EXPECT_TRUE(std::equal(lsbThresholds().begin(),
                           lsbThresholds().end(),
                           pageThresholds(CellType::Tlc, PageType::Lsb)
                               .begin()));
    EXPECT_TRUE(std::equal(csbThresholds().begin(),
                           csbThresholds().end(),
                           pageThresholds(CellType::Tlc, PageType::Csb)
                               .begin()));
    EXPECT_TRUE(std::equal(msbThresholds().begin(),
                           msbThresholds().end(),
                           pageThresholds(CellType::Tlc, PageType::Msb)
                               .begin()));
    for (int i = 1; i <= kThresholds; ++i)
        EXPECT_EQ(tlc.expectedOnesFraction(i), i / 8.0);
    for (const PageType t :
         {PageType::Lsb, PageType::Csb, PageType::Msb})
        for (const double pe : {0.0, 500.0, 2000.0})
            for (const double days : {0.0, 1.0, 10.0, 30.0}) {
                EXPECT_EQ(legacy.pageRber(t, pe, days),
                          tlc.pageRber(t, pe, days));
                EXPECT_EQ(legacy.pageRberOptimal(t, pe, days),
                          tlc.pageRberOptimal(t, pe, days));
            }
}

TEST(QlcVthModel, SixteenStatesOrderedAndSeparated)
{
    const VthModel q(CellType::Qlc);
    EXPECT_EQ(q.numStates(), 16);
    EXPECT_EQ(q.numThresholds(), 15);
    const auto st = q.states(0.0, 0.0);
    for (int s = 1; s < q.numStates(); ++s) {
        EXPECT_GT(st[s].mean, st[s - 1].mean);
        EXPECT_GT(st[s].sigma, 0.0);
    }
    for (int i = 1; i <= q.numThresholds(); ++i) {
        const double v = q.defaultVref(i);
        EXPECT_GT(v, st[i - 1].mean);
        EXPECT_LT(v, st[i].mean);
    }
}

TEST(QlcVthModel, RberGrowsWithRetentionAndWear)
{
    const VthModel q(CellType::Qlc);
    for (int ty = 0; ty < pageTypesOf(CellType::Qlc); ++ty) {
        const PageType t{ty};
        double prev = q.pageRber(t, 0.0, 0.0);
        for (const double days : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
            const double r = q.pageRber(t, 0.0, days);
            EXPECT_GT(r, prev) << "type " << ty << " at " << days;
            prev = r;
        }
        EXPECT_LT(q.pageRber(t, 0.0, 4.0), q.pageRber(t, 1000.0, 4.0));
    }
}

TEST(QlcVthModel, DenserWindowDegradesFasterThanTlc)
{
    const VthModel tlc(CellType::Tlc);
    const VthModel qlc(CellType::Qlc);
    // Same wear point: the 16-state window has ~1/2 the per-state
    // margin, so QLC must be strictly worse, and its capability
    // crossing must land within days where TLC has weeks.
    EXPECT_GT(qlc.pageRber(PageType::Lsb, 500.0, 4.0),
              tlc.pageRber(PageType::Lsb, 500.0, 4.0));
    EXPECT_GT(qlc.pageRber(PageType::Msb, 500.0, 4.0),
              tlc.pageRber(PageType::Msb, 500.0, 4.0));
}

TEST(QlcVthModel, OptimalVrefStillDecodable)
{
    // RiF's premise carries to QLC: the near-optimal re-read lands
    // below the ECC capability through 1K P/E at young-to-mid ages.
    const VthModel q(CellType::Qlc);
    for (int ty = 0; ty < pageTypesOf(CellType::Qlc); ++ty)
        for (const double pe : {0.0, 500.0, 1000.0}) {
            const double opt =
                q.pageRberOptimal(PageType(ty), pe, 2.0);
            EXPECT_LT(opt, 0.0085)
                << "type " << ty << " pe " << pe;
            EXPECT_LT(opt, q.pageRber(PageType(ty), pe, 2.0));
        }
}

TEST(SlcVthModel, SinglePageTypeNearZeroRber)
{
    const VthModel s(CellType::Slc);
    EXPECT_EQ(s.numStates(), 2);
    EXPECT_EQ(s.numThresholds(), 1);
    EXPECT_EQ(pageTypesOf(CellType::Slc), 1);
    // The whole V_TH window for one threshold: effectively error-free
    // even deep into wear and retention.
    EXPECT_LT(s.pageRber(PageType::Lsb, 2000.0, 30.0), 1e-6);
}

TEST(RberModel, TlcCellParamsAreTheDefaults)
{
    const RberParams base;
    const RberParams tlc = cellRberParams(CellType::Tlc);
    EXPECT_EQ(tlc.peBase, base.peBase);
    EXPECT_EQ(tlc.peCoeff, base.peCoeff);
    EXPECT_EQ(tlc.retCoeff, base.retCoeff);
    EXPECT_EQ(tlc.retExp, base.retExp);
    EXPECT_EQ(tlc.blockSigma, base.blockSigma);
    EXPECT_EQ(tlc.capability, base.capability);
    for (int t = 0; t < kMaxPageTypes; ++t)
        EXPECT_EQ(tlc.typeFactor[t], base.typeFactor[t]);
}

TEST(RberModel, QlcParametricCrossesWithinDays)
{
    // The parametric QLC calibration must agree with the V_TH QLC
    // story: capability crossings within single-digit days across the
    // wear range (vs ~17 days fresh on TLC), shrinking with P/E.
    const RberModel qlc(cellRberParams(CellType::Qlc));
    const double fresh =
        qlc.retentionUntilCapability(0.0, PageType::Csb);
    const double worn =
        qlc.retentionUntilCapability(1000.0, PageType::Csb);
    EXPECT_LT(fresh, 10.0);
    EXPECT_GT(fresh, 2.0);
    EXPECT_LT(worn, fresh);
    EXPECT_GT(worn, 0.25);
}

} // namespace
} // namespace nand
} // namespace rif
