/**
 * @file
 * Tests of the read-retry policy planner: for each SSD configuration the
 * planner must emit scripts with the exact phase structure and channel
 * accounting §IV/§VI describe. Extreme RBER values make the stochastic
 * outcomes deterministic so each path can be pinned down.
 */

#include <gtest/gtest.h>

#include "ssd/policy.h"

namespace rif {
namespace ssd {
namespace {

constexpr double kCleanRber = 1e-4;  ///< decodes, never predicted retry
constexpr double kDoomedRber = 0.03; ///< never decodes, always predicted

SsdConfig
configFor(PolicyKind p)
{
    SsdConfig cfg;
    cfg.policy = p;
    return cfg;
}

/** Count phases of a kind. */
int
countKind(const ReadScript &s, ReadPhase::Kind k)
{
    int n = 0;
    for (const auto &ph : s.phases)
        n += (ph.kind == k);
    return n;
}

int
countUsage(const ReadScript &s, ChannelState u)
{
    int n = 0;
    for (const auto &ph : s.phases)
        n += (ph.kind == ReadPhase::Kind::Transfer && ph.usage == u);
    return n;
}

TEST(PlanRead, ZeroNeverRetries)
{
    const SsdConfig cfg = configFor(PolicyKind::Zero);
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(1);
    for (double rber : {kCleanRber, kDoomedRber}) {
        const ReadScript s = planRead(cfg, bm, rber, rng);
        ASSERT_EQ(s.phases.size(), 3u);
        EXPECT_EQ(s.phases[0].kind, ReadPhase::Kind::DieVisit);
        EXPECT_EQ(s.phases[0].duration, cfg.timing.tR);
        EXPECT_EQ(s.phases[1].usage, ChannelState::CorXfer);
        EXPECT_FALSE(s.phases[2].decodeFails);
        EXPECT_FALSE(s.stats.retried);
        // Even a hopeless page decodes within the success latency band.
        EXPECT_LE(s.phases[2].duration, usToTicks(6.0));
    }
}

TEST(PlanRead, CleanReadIsIdenticalAcrossOffChipPolicies)
{
    Rng rng(2);
    for (PolicyKind p : {PolicyKind::IdealOffChip, PolicyKind::Sentinel,
                         PolicyKind::SwiftRead}) {
        const SsdConfig cfg = configFor(p);
        const auto bm = makeBehaviorModel(cfg);
        const ReadScript s = planRead(cfg, bm, kCleanRber, rng);
        ASSERT_EQ(s.phases.size(), 3u) << policyName(p);
        EXPECT_FALSE(s.stats.retried);
        EXPECT_EQ(s.stats.uncorTransfers, 0);
        EXPECT_EQ(countUsage(s, ChannelState::CorXfer), 1);
    }
}

TEST(PlanRead, IdealOffChipFailurePath)
{
    const SsdConfig cfg = configFor(PolicyKind::IdealOffChip);
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(3);
    const ReadScript s = planRead(cfg, bm, kDoomedRber, rng);
    // Sense, UNCOR xfer, failed decode, re-sense, COR xfer, 1us decode.
    ASSERT_EQ(s.phases.size(), 6u);
    EXPECT_TRUE(s.phases[2].decodeFails);
    EXPECT_EQ(s.phases[2].duration, cfg.timing.tEccMax);
    EXPECT_EQ(s.phases[3].duration, cfg.timing.tR);
    EXPECT_EQ(s.phases[5].duration, cfg.timing.tEccMin);
    EXPECT_TRUE(s.stats.retried);
    EXPECT_EQ(s.stats.uncorTransfers, 1);
    EXPECT_EQ(s.stats.failedDecodes, 1);
    EXPECT_EQ(countUsage(s, ChannelState::UncorXfer), 1);
    EXPECT_EQ(countUsage(s, ChannelState::CorXfer), 1);
}

TEST(PlanRead, SentinelSometimesPaysAnExtraOffChipRead)
{
    const SsdConfig cfg = configFor(PolicyKind::Sentinel);
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(4);
    int with_extra = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const ReadScript s = planRead(cfg, bm, kDoomedRber, rng);
        const int uncor = countUsage(s, ChannelState::UncorXfer);
        EXPECT_GE(uncor, 1);
        EXPECT_LE(uncor, 2);
        with_extra += (uncor == 2);
    }
    // Extra sentinel read for ~2/3 of failed pages (CSB/MSB types).
    EXPECT_NEAR(with_extra / double(n), cfg.sentinelExtraReadProb, 0.05);
}

TEST(PlanRead, SwiftReadRetriesWithDoubleSense)
{
    const SsdConfig cfg = configFor(PolicyKind::SwiftRead);
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(5);
    const ReadScript s = planRead(cfg, bm, kDoomedRber, rng);
    ASSERT_EQ(s.phases.size(), 6u);
    EXPECT_EQ(s.phases[3].kind, ReadPhase::Kind::DieVisit);
    EXPECT_EQ(s.phases[3].duration, 2 * cfg.timing.tR);
    EXPECT_EQ(s.stats.uncorTransfers, 1);
}

TEST(PlanRead, SwiftReadPlusAvoidsSomeRetries)
{
    const SsdConfig cfg = configFor(PolicyKind::SwiftReadPlus);
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(6);
    int retried = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        retried += planRead(cfg, bm, kDoomedRber, rng).stats.retried;
    // Tracked reads skip the retry entirely.
    EXPECT_NEAR(retried / double(n), 1.0 - cfg.vrefTrackedFraction, 0.05);
}

TEST(PlanRead, RpControllerTerminatesFailedDecodesEarly)
{
    const SsdConfig cfg = configFor(PolicyKind::RpController);
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(7);
    const ReadScript s = planRead(cfg, bm, kDoomedRber, rng);
    // The page still crosses the channel but the decode slot is short.
    ASSERT_GE(s.phases.size(), 6u);
    EXPECT_EQ(countUsage(s, ChannelState::UncorXfer), 1);
    EXPECT_EQ(s.phases[2].duration, cfg.tPredController);
    EXPECT_TRUE(s.phases[2].decodeFails);
    EXPECT_EQ(s.stats.failedDecodes, 0) << "no full failed decode paid";
}

TEST(PlanRead, RifKeepsRetryOnDie)
{
    const SsdConfig cfg = configFor(PolicyKind::Rif);
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(8);
    const ReadScript s = planRead(cfg, bm, kDoomedRber, rng);
    // One die visit (sense + predict + Swift-Read), one COR transfer,
    // one fast decode: the channel never sees the failure.
    ASSERT_EQ(s.phases.size(), 3u);
    EXPECT_EQ(s.phases[0].duration,
              cfg.timing.tR + cfg.timing.tPred + 2 * cfg.timing.tR);
    EXPECT_EQ(countUsage(s, ChannelState::UncorXfer), 0);
    EXPECT_EQ(s.stats.uncorTransfers, 0);
    EXPECT_EQ(s.stats.avoidedTransfers, 1);
    EXPECT_EQ(s.stats.rpPredictions, 1);
    EXPECT_TRUE(s.stats.retried);
}

TEST(PlanRead, RifCleanReadPaysOnlyPredictionLatency)
{
    const SsdConfig cfg = configFor(PolicyKind::Rif);
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(9);
    const ReadScript s = planRead(cfg, bm, kCleanRber, rng);
    ASSERT_EQ(s.phases.size(), 3u);
    EXPECT_EQ(s.phases[0].duration, cfg.timing.tR + cfg.timing.tPred);
    EXPECT_FALSE(s.stats.retried);
    EXPECT_EQ(s.stats.avoidedTransfers, 0);
}

TEST(PlanRead, RifMissesAreRareAndFallBackOffChip)
{
    const SsdConfig cfg = configFor(PolicyKind::Rif);
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(10);
    int misses = 0, avoided = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        const ReadScript s = planRead(cfg, bm, 0.012, rng);
        misses += s.stats.missedPredictions;
        avoided += s.stats.avoidedTransfers;
        if (s.stats.missedPredictions) {
            // Misses pay the full off-chip failure path.
            EXPECT_EQ(s.stats.uncorTransfers, 1);
            EXPECT_EQ(s.stats.failedDecodes, 1);
            EXPECT_EQ(countKind(s, ReadPhase::Kind::Decode), 2);
        }
    }
    // The paper reports ~98.7% accuracy for uncorrectable pages.
    EXPECT_LT(misses / double(n), 0.05);
    EXPECT_GT(avoided / double(n), 0.9);
}

TEST(PlanRead, FixedSequenceStepsUntilDecodable)
{
    const SsdConfig cfg = configFor(PolicyKind::FixedSequence);
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(21);
    // At 0.03 RBER with step factor 0.65, roughly three steps are
    // needed to cross below the 0.0085 capability: NRR > 1 on average.
    double uncor_sum = 0.0;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        const ReadScript s = planRead(cfg, bm, kDoomedRber, rng);
        EXPECT_GE(s.stats.uncorTransfers, 1);
        EXPECT_LE(s.stats.uncorTransfers, cfg.maxRetrySteps);
        EXPECT_TRUE(s.stats.retried);
        uncor_sum += s.stats.uncorTransfers;
    }
    EXPECT_GT(uncor_sum / n, 1.5) << "conventional retry must need "
                                     "multiple rounds at high RBER";
}

TEST(PlanRead, FixedSequenceFinerStepsNeedMoreRounds)
{
    SsdConfig coarse = configFor(PolicyKind::FixedSequence);
    coarse.seqStepFactor = 0.4;
    SsdConfig fine = configFor(PolicyKind::FixedSequence);
    fine.seqStepFactor = 0.85;
    const auto bm = makeBehaviorModel(coarse);
    Rng rng_a(22), rng_b(22);
    double coarse_sum = 0.0, fine_sum = 0.0;
    for (int i = 0; i < 300; ++i) {
        coarse_sum += planRead(coarse, bm, kDoomedRber, rng_a)
                          .stats.uncorTransfers;
        fine_sum +=
            planRead(fine, bm, kDoomedRber, rng_b).stats.uncorTransfers;
    }
    EXPECT_LT(coarse_sum, fine_sum);
}

class EveryPolicy : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(EveryPolicy, ScriptsAreWellFormed)
{
    const SsdConfig cfg = configFor(GetParam());
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(12);
    for (double rber : {1e-4, 0.006, 0.0085, 0.012, 0.03}) {
        for (int i = 0; i < 50; ++i) {
            const ReadScript s = planRead(cfg, bm, rber, rng);
            ASSERT_GE(s.phases.size(), 3u);
            // Starts on the die, ends with a successful decode.
            EXPECT_EQ(s.phases.front().kind, ReadPhase::Kind::DieVisit);
            EXPECT_EQ(s.phases.back().kind, ReadPhase::Kind::Decode);
            EXPECT_FALSE(s.phases.back().decodeFails);
            // Phase-order grammar: DieVisit+ (Transfer Decode?)+ ...
            for (std::size_t p = 0; p + 1 < s.phases.size(); ++p) {
                if (s.phases[p].kind == ReadPhase::Kind::Transfer) {
                    EXPECT_NE(s.phases[p + 1].kind,
                              ReadPhase::Kind::Transfer)
                        << "back-to-back transfers are impossible";
                }
                if (s.phases[p].kind == ReadPhase::Kind::Decode &&
                    s.phases[p].decodeFails) {
                    EXPECT_EQ(s.phases[p + 1].kind,
                              ReadPhase::Kind::DieVisit)
                        << "failed decode must trigger a re-read";
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EveryPolicy,
    ::testing::Values(PolicyKind::Zero, PolicyKind::FixedSequence,
                      PolicyKind::IdealOffChip, PolicyKind::Sentinel,
                      PolicyKind::SwiftRead, PolicyKind::SwiftReadPlus,
                      PolicyKind::RpController, PolicyKind::Rif),
    [](const auto &info) {
        std::string name = policyName(info.param);
        for (auto &c : name) {
            if (c == '+')
                c = 'P';
        }
        std::erase_if(name, [](char c) { return !std::isalnum(c); });
        return name;
    });

TEST(PolicyName, CoversAllKinds)
{
    EXPECT_STREQ(policyName(PolicyKind::Zero), "SSDzero");
    EXPECT_STREQ(policyName(PolicyKind::FixedSequence), "CONV");
    EXPECT_STREQ(policyName(PolicyKind::IdealOffChip), "SSDone");
    EXPECT_STREQ(policyName(PolicyKind::Sentinel), "SENC");
    EXPECT_STREQ(policyName(PolicyKind::SwiftRead), "SWR");
    EXPECT_STREQ(policyName(PolicyKind::SwiftReadPlus), "SWR+");
    EXPECT_STREQ(policyName(PolicyKind::RpController), "RPSSD");
    EXPECT_STREQ(policyName(PolicyKind::Rif), "RiFSSD");
}

TEST(Config, TeccSuccessBandsWithRber)
{
    const SsdConfig cfg;
    EXPECT_EQ(cfg.teccSuccess(0.0), usToTicks(1.0));
    EXPECT_LT(cfg.teccSuccess(0.004), cfg.teccSuccess(0.008));
    // Capped at the success band even past the capability.
    EXPECT_EQ(cfg.teccSuccess(0.02), usToTicks(6.0));
    EXPECT_LT(cfg.teccSuccess(0.02), cfg.teccFailure());
}

} // namespace
} // namespace ssd
} // namespace rif
