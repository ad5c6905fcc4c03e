/**
 * @file
 * Cross-module property tests: algebraic invariants of the code
 * (linearity), conservation laws of the simulator across geometries,
 * policy-independent accounting identities, and determinism sweeps.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/rif.h"

namespace rif {
namespace {

using ssd::ChannelState;
using ssd::PolicyKind;
using ssd::SsdConfig;
using ssd::SsdStats;

TEST(LdpcProperties, CodeIsLinear)
{
    // The sum (XOR) of two codewords is a codeword.
    ldpc::CodeParams p;
    p.circulant = 64;
    const ldpc::QcLdpcCode code(p);
    Rng rng(1);
    const BitVec a =
        code.encode(ldpc::randomData(code.params().k(), rng));
    const BitVec b =
        code.encode(ldpc::randomData(code.params().k(), rng));
    BitVec sum = a;
    sum.xorRange(0, b, 0, b.size());
    EXPECT_TRUE(code.isCodeword(sum));
}

TEST(LdpcProperties, EncodingIsDeterministic)
{
    ldpc::CodeParams p;
    p.circulant = 64;
    const ldpc::QcLdpcCode code_a(p), code_b(p);
    Rng rng(2);
    const BitVec data = ldpc::randomData(code_a.params().k(), rng);
    EXPECT_EQ(code_a.encode(data), code_b.encode(data));
    // Different seeds give different codes.
    ldpc::CodeParams q = p;
    q.seed = 999;
    const ldpc::QcLdpcCode other(q);
    EXPECT_NE(other.encode(data), code_a.encode(data));
}

TEST(LdpcProperties, SyndromeIsLinearInErrors)
{
    // syndrome(codeword + e) == syndrome(e): depends only on the error.
    ldpc::CodeParams p;
    p.circulant = 64;
    const ldpc::QcLdpcCode code(p);
    Rng rng(3);
    const BitVec clean =
        code.encode(ldpc::randomData(code.params().k(), rng));
    BitVec error(clean.size());
    ldpc::injectExactErrors(error, 25, rng);
    BitVec noisy = clean;
    noisy.xorRange(0, error, 0, error.size());
    EXPECT_EQ(code.syndrome(noisy), code.syndrome(error));
}

TEST(RearrangeProperties, TransformIsLinear)
{
    // Rotations are linear maps: T(a ^ b) == T(a) ^ T(b).
    ldpc::CodeParams p;
    p.circulant = 64;
    const ldpc::QcLdpcCode code(p);
    const odear::CodewordRearranger rr(code);
    Rng rng(4);
    BitVec a(p.n()), b(p.n());
    for (std::size_t i = 0; i < p.n(); ++i) {
        a.set(i, rng.chance(0.5));
        b.set(i, rng.chance(0.5));
    }
    BitVec sum = a;
    sum.xorRange(0, b, 0, b.size());
    BitVec ta = rr.toFlashLayout(a);
    ta.xorRange(0, rr.toFlashLayout(b), 0, p.n());
    EXPECT_EQ(rr.toFlashLayout(sum), ta);
}

class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GeometrySweep, ConservationHoldsEverywhere)
{
    const auto [channels, dies, planes] = GetParam();
    SsdConfig cfg;
    cfg.geometry.channels = channels;
    cfg.geometry.diesPerChannel = dies;
    cfg.geometry.planesPerDie = planes;
    cfg.geometry.blocksPerPlane = 48;
    cfg.geometry.pagesPerBlock = 96;
    cfg.policy = PolicyKind::Rif;
    cfg.peCycles = 1000.0;
    cfg.queueDepth = 8;

    trace::WorkloadSpec spec;
    spec.name = "sweep";
    spec.readRatio = 0.8;
    spec.coldReadRatio = 0.7;
    spec.footprintPages = 2048;
    trace::SyntheticWorkload gen(spec, 600, 77);

    ssd::Ssd drive(cfg);
    const SsdStats st = drive.run(gen);

    EXPECT_EQ(st.hostRequests, 600u);
    EXPECT_EQ(st.readLatencyUs.count() + st.writeLatencyUs.count(),
              600u);
    ASSERT_EQ(st.channels.size(), static_cast<std::size_t>(channels));
    for (const auto &u : st.channels)
        EXPECT_EQ(u.total(), st.makespan);
    // RiF accounting identities.
    EXPECT_EQ(st.rpPredictions, st.pageReads);
    EXPECT_LE(st.missedPredictions, st.retriedReads);
    EXPECT_LE(st.avoidedTransfers + st.missedPredictions +
                  st.falseInDieRetries,
              st.pageReads);
    // More parallel hardware must not make things slower for the same
    // work (weak sanity: bandwidth positive).
    EXPECT_GT(st.ioBandwidthMBps(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 2, 4),
                      std::make_tuple(2, 1, 2), std::make_tuple(4, 4, 4),
                      std::make_tuple(3, 2, 4)));

TEST(ScalingProperties, MoreChannelsMoreBandwidth)
{
    auto bw = [](int channels) {
        SsdConfig cfg;
        cfg.geometry.channels = channels;
        cfg.geometry.diesPerChannel = 2;
        cfg.geometry.blocksPerPlane = 48;
        cfg.geometry.pagesPerBlock = 96;
        cfg.policy = PolicyKind::Zero;
        cfg.queueDepth = 32;
        trace::WorkloadSpec spec;
        spec.name = "scale";
        spec.readRatio = 1.0;
        spec.coldReadRatio = 0.5;
        spec.footprintPages = 4096;
        trace::SyntheticWorkload gen(spec, 1500, 5);
        ssd::Ssd drive(cfg);
        return drive.run(gen).ioBandwidthMBps();
    };
    const double one = bw(1);
    const double four = bw(4);
    EXPECT_GT(four, 2.5 * one);
}

class PolicyDeterminism : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(PolicyDeterminism, IdenticalSeedsIdenticalRuns)
{
    SsdConfig cfg;
    cfg.geometry.channels = 2;
    cfg.geometry.diesPerChannel = 2;
    cfg.geometry.blocksPerPlane = 48;
    cfg.geometry.pagesPerBlock = 96;
    cfg.policy = GetParam();
    cfg.peCycles = 1500.0;
    cfg.queueDepth = 8;
    trace::WorkloadSpec spec;
    spec.name = "det";
    spec.readRatio = 0.7;
    spec.coldReadRatio = 0.8;
    spec.footprintPages = 2048;

    auto once = [&] {
        trace::SyntheticWorkload gen(spec, 400, 12);
        ssd::Ssd drive(cfg);
        return drive.run(gen);
    };
    const SsdStats a = once();
    const SsdStats b = once();
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.pageReads, b.pageReads);
    EXPECT_EQ(a.retriedReads, b.retriedReads);
    EXPECT_EQ(a.uncorTransfers, b.uncorTransfers);
    EXPECT_EQ(a.failedDecodes, b.failedDecodes);
    EXPECT_DOUBLE_EQ(a.readLatencyUs.percentile(99.0),
                     b.readLatencyUs.percentile(99.0));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyDeterminism,
    ::testing::Values(PolicyKind::Zero, PolicyKind::FixedSequence,
                      PolicyKind::IdealOffChip, PolicyKind::Sentinel,
                      PolicyKind::SwiftRead, PolicyKind::SwiftReadPlus,
                      PolicyKind::RpController, PolicyKind::Rif),
    [](const auto &info) {
        std::string name = ssd::policyName(info.param);
        for (auto &c : name) {
            if (c == '+')
                c = 'P';
        }
        std::erase_if(name, [](char c) { return !std::isalnum(c); });
        return name;
    });

TEST(BehaviorProperties, RetryRateMatchesModelPrediction)
{
    // The realized retry fraction in a full simulation must agree with
    // the analytic failure probability integrated over the age mix.
    SsdConfig cfg;
    cfg.geometry.channels = 2;
    cfg.geometry.diesPerChannel = 2;
    cfg.geometry.blocksPerPlane = 48;
    cfg.geometry.pagesPerBlock = 96;
    cfg.policy = PolicyKind::IdealOffChip;
    cfg.peCycles = 1000.0;
    cfg.rber.blockSigma = 1e-6; // silence process variation
    trace::WorkloadSpec spec;
    spec.name = "check";
    spec.readRatio = 1.0;
    spec.coldReadRatio = 1.0; // every read cold
    spec.footprintPages = 4096;
    trace::SyntheticWorkload gen(spec, 2000, 3);
    ssd::Ssd drive(cfg);
    const SsdStats st = drive.run(gen);
    const double measured = static_cast<double>(st.retriedReads) /
                            static_cast<double>(st.pageReads);

    // Analytic: age uniform in [0, 30); average failure probability
    // over ages and page types.
    const nand::RberModel model(cfg.rber);
    const auto bm = ssd::makeBehaviorModel(cfg);
    double expected = 0.0;
    const int knots = 300;
    for (int i = 0; i < knots; ++i) {
        const double age = 30.0 * (i + 0.5) / knots;
        for (int t = 0; t < nand::kPageTypes; ++t) {
            expected += bm.failureProbability(model.rber(
                1000.0, age, 0, static_cast<nand::PageType>(t), 1.0));
        }
    }
    expected /= knots * nand::kPageTypes;
    EXPECT_NEAR(measured, expected, 0.04);
}

} // namespace
} // namespace rif
