/**
 * @file
 * Tests of the layered `--set` option layer, the config name parser
 * (parsePolicy), SsdConfig::validate(), the workload
 * lookup helpers and the bench scale helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bench_util.h"
#include "common/parse.h"
#include "core/options.h"
#include "trace/trace.h"

namespace rif {
namespace {

// ---------------------------------------------------------------------
// Name parsers: every enumerator round-trips through its printed name.
// ---------------------------------------------------------------------

TEST(ConfigParsers, PolicyRoundTripsOverAllKinds)
{
    for (ssd::PolicyKind kind : ssd::kAllPolicyKinds) {
        const auto parsed = ssd::parsePolicy(ssd::policyName(kind));
        ASSERT_TRUE(parsed.has_value()) << ssd::policyName(kind);
        EXPECT_EQ(*parsed, kind);
    }
}

TEST(ConfigParsers, PolicyRejectsUnknownNames)
{
    EXPECT_FALSE(ssd::parsePolicy("").has_value());
    EXPECT_FALSE(ssd::parsePolicy("rif").has_value());   // case matters
    EXPECT_FALSE(ssd::parsePolicy("SENCX").has_value()); // no prefixes
}

// ---------------------------------------------------------------------
// OptionSet: typed parsing and layering.
// ---------------------------------------------------------------------

TEST(OptionSet, AppliesTypedSsdOverrides)
{
    core::OptionSet opts;
    opts.addSet("ssd.queueDepth=128");
    opts.addSet("ssd.hostGBps=4.5");
    opts.addSet("ssd.policy=SWR+");
    opts.addSet("geometry.channels=4");
    opts.addSet("timing.tR=45.5");

    ssd::SsdConfig cfg;
    opts.applyTo(cfg);
    EXPECT_EQ(cfg.queueDepth, 128);
    EXPECT_DOUBLE_EQ(cfg.hostGBps, 4.5);
    EXPECT_EQ(cfg.policy, ssd::PolicyKind::SwiftReadPlus);
    EXPECT_EQ(cfg.geometry.channels, 4);
    EXPECT_EQ(cfg.timing.tR, usToTicks(45.5));
}

TEST(OptionSet, AppliesRunOverrides)
{
    core::OptionSet opts;
    opts.addSet("run.requests=1234");
    opts.addSet("run.seed=42");
    RunScale rs;
    opts.applyTo(rs);
    EXPECT_EQ(rs.requests, 1234u);
    EXPECT_EQ(rs.seed, 42u);
}

TEST(OptionSet, LaterOverrideWins)
{
    core::OptionSet opts;
    opts.addSet("ssd.queueDepth=8");
    opts.addSet("ssd.queueDepth=64");
    ssd::SsdConfig cfg;
    opts.applyTo(cfg);
    EXPECT_EQ(cfg.queueDepth, 64);
}

TEST(OptionSet, EmptySetIsANoOp)
{
    const core::OptionSet opts;
    EXPECT_TRUE(opts.empty());
    ssd::SsdConfig cfg;
    const ssd::SsdConfig before = cfg;
    opts.applyTo(cfg);
    EXPECT_EQ(cfg.queueDepth, before.queueDepth);
    EXPECT_FALSE(opts.workload().has_value());
}

TEST(OptionSet, KnownKeysCoverEverySection)
{
    const auto keys = core::OptionSet::knownKeys();
    ASSERT_FALSE(keys.empty());
    bool ssd = false, geometry = false, timing = false, run = false;
    bool nand = false, rvs = false;
    for (const auto &k : keys) {
        const std::string key = k.key;
        ssd = ssd || key.rfind("ssd.", 0) == 0;
        geometry = geometry || key.rfind("geometry.", 0) == 0;
        timing = timing || key.rfind("timing.", 0) == 0;
        run = run || key.rfind("run.", 0) == 0;
        nand = nand || key.rfind("nand.", 0) == 0;
        rvs = rvs || key.rfind("rvs.", 0) == 0;
        EXPECT_NE(std::string(k.help), "");
    }
    EXPECT_TRUE(ssd && geometry && timing && run && nand && rvs);
}

TEST(OptionSetDeathTest, RejectsMalformedAndUnknownInput)
{
    core::OptionSet opts;
    EXPECT_DEATH(opts.addSet("ssd.queueDepth"), "key=value");
    EXPECT_DEATH(opts.addSet("=128"), "key=value");
    EXPECT_DEATH(opts.addSet("ssd.bogus=1"), "unknown key");
    EXPECT_DEATH(opts.addSet("queueDepth=128"), "unknown key");
    // Keys of deleted model forks stay rejected, not silently ignored.
    EXPECT_DEATH(opts.addSet("ssd.rberSource=vth"), "unknown key");
    EXPECT_DEATH(opts.addSet("ssd.readPriority=true"), "unknown key");
    EXPECT_DEATH(opts.addSet("workload.onMs=1"), "unknown key");
}

TEST(OptionSetDeathTest, RejectsOutOfDomainValuesEagerly)
{
    core::OptionSet opts;
    // All of these must die inside addSet, before any applyTo().
    EXPECT_DEATH(opts.addSet("ssd.queueDepth=0"), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.queueDepth=ten"), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.queueDepth=1.5"), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.hostGBps=nan"), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.hostGBps=inf"), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.hostGBps=0"), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.hostGBps="), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.policy=RAID"), "invalid value");
    EXPECT_DEATH(opts.addSet("workload.arrival=diurnal"),
                 "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.sentinelExtraReadProb=1.5"),
                 "invalid value");
    EXPECT_DEATH(opts.addSet("run.requests=0"), "invalid value");
    EXPECT_DEATH(opts.addSet("run.requests=-5"), "invalid value");
    EXPECT_DEATH(opts.addSet("geometry.pageBytes=128"), "invalid value");
}

TEST(OptionSetDeathTest, DoublesParseAsStrictlyAsIntegers)
{
    core::OptionSet opts;
    // A blank, a '+' sign and hex are rejected for every number type.
    EXPECT_DEATH(opts.addSet("ssd.hostGBps= 5"), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.hostGBps=0x10"), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.hostGBps=+5"), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.queueDepth= 5"), "invalid value");
    EXPECT_DEATH(opts.addSet("ssd.queueDepth=+5"), "invalid value");
}

TEST(OptionSetDeathTest, EveryKeyRejectsNonsenseByName)
{
    // workload.trace takes any path, so any string is a valid value.
    for (const core::OptionKey &k : core::OptionSet::knownKeys()) {
        const std::string key = k.key;
        if (key == "workload.trace")
            continue;
        core::OptionSet opts;
        EXPECT_DEATH(opts.addSet(key + "=bogus"),
                     "--set " + key + ": invalid value 'bogus'")
            << key;
    }
}

TEST(ParseNumber, AcceptsOnlyPlainDecimal)
{
    EXPECT_EQ(parseNumber<int>("42"), 42);
    EXPECT_EQ(parseNumber<int>("-7"), -7);
    EXPECT_EQ(parseNumber<double>("2.5e3"), 2500.0);
    EXPECT_EQ(parseNumber<double>(".5"), 0.5);
    for (const char *bad : {"", " 4", "4 ", "+4", "0x10", "4x", "1e"})
        EXPECT_FALSE(parseNumber<double>(bad).has_value()) << bad;
    EXPECT_FALSE(parseNumber<int>("1.5").has_value());
    EXPECT_FALSE(parseNumber<int>("99999999999").has_value());
    EXPECT_FALSE(parseNumber<std::uint32_t>("-1").has_value());
}

TEST(OptionSetDeathTest, CrossFieldNonsenseFailsOnValidate)
{
    // Each value is individually in-domain; the combination is nonsense
    // and must be caught by SsdConfig::validate() inside applyTo().
    core::OptionSet opts;
    opts.addSet("timing.tEccMin=20");
    opts.addSet("timing.tEccMax=1");
    ssd::SsdConfig cfg;
    EXPECT_DEATH(opts.applyTo(cfg), "tEccMin");
}

TEST(OptionSet, CellTypeRebasesTheRberCalibration)
{
    core::OptionSet opts;
    opts.addSet("nand.cellType=qlc");
    ssd::SsdConfig cfg;
    opts.applyTo(cfg);
    EXPECT_EQ(cfg.cellType, nand::CellType::Qlc);
    const nand::RberParams qlc =
        nand::cellRberParams(nand::CellType::Qlc);
    EXPECT_EQ(cfg.rber.peBase, qlc.peBase);
    EXPECT_EQ(cfg.rber.retCoeff, qlc.retCoeff);
    EXPECT_NE(cfg.rber.peBase, nand::RberParams{}.peBase);
}

TEST(OptionSet, RvsKeysReachTheCostParams)
{
    core::OptionSet opts;
    opts.addSet("rvs.recharacterizeDays=4.5");
    opts.addSet("rvs.samplesPerThreshold=3");
    opts.addSet("rvs.sampleReadUs=25");
    ssd::SsdConfig cfg;
    opts.applyTo(cfg);
    EXPECT_DOUBLE_EQ(cfg.rvsCost.recharacterizeDays, 4.5);
    EXPECT_EQ(cfg.rvsCost.samplesPerThreshold, 3);
    EXPECT_DOUBLE_EQ(cfg.rvsCost.sampleReadUs, 25.0);
}

TEST(OptionSetDeathTest, RejectsBadCellModelValues)
{
    core::OptionSet opts;
    EXPECT_DEATH(opts.addSet("nand.cellType=mlc"), "invalid value");
    EXPECT_DEATH(opts.addSet("nand.cellType=QLC"), "invalid value");
    EXPECT_DEATH(opts.addSet("nand.slcBlockFraction=1.5"),
                 "invalid value");
    EXPECT_DEATH(opts.addSet("nand.slcRberFactor=0"), "invalid value");
    EXPECT_DEATH(opts.addSet("rvs.recharacterizeDays=0"),
                 "invalid value");
    EXPECT_DEATH(opts.addSet("rvs.samplesPerThreshold=0"),
                 "invalid value");
    EXPECT_DEATH(opts.addSet("rvs.sampleReadUs=-1"), "invalid value");
}

TEST(OptionSetDeathTest, CellModelCrossFieldNonsense)
{
    {
        // An all-SLC drive cannot also convert blocks to SLC mode.
        core::OptionSet opts;
        opts.addSet("nand.cellType=slc");
        opts.addSet("nand.slcBlockFraction=0.5");
        ssd::SsdConfig cfg;
        EXPECT_DEATH(opts.applyTo(cfg), "already SLC");
    }
    {
        // Re-characterizing less often than data is refreshed means
        // the tracker never updates at all.
        core::OptionSet opts;
        opts.addSet("rvs.recharacterizeDays=40");
        ssd::SsdConfig cfg;
        EXPECT_DEATH(opts.applyTo(cfg), "refreshDays");
    }
    {
        // A block must hold one full stripe of the cell's page types.
        core::OptionSet opts;
        opts.addSet("nand.cellType=qlc");
        opts.addSet("geometry.pagesPerBlock=2");
        ssd::SsdConfig cfg;
        EXPECT_DEATH(opts.applyTo(cfg), "stripe");
    }
}

TEST(OptionSet, RecordsKnownWorkloads)
{
    core::OptionSet opts;
    opts.setWorkload("Ali124");
    ASSERT_TRUE(opts.workload().has_value());
    EXPECT_EQ(*opts.workload(), "Ali124");
    EXPECT_FALSE(opts.empty());
}

TEST(OptionSetDeathTest, RejectsUnknownWorkloads)
{
    core::OptionSet opts;
    EXPECT_DEATH(opts.setWorkload("Ali999"), "unknown workload");
}

// ---------------------------------------------------------------------
// SsdConfig::validate().
// ---------------------------------------------------------------------

TEST(SsdConfigValidate, DefaultConfigIsValid)
{
    const ssd::SsdConfig cfg;
    cfg.validate(); // must not die
}

TEST(SsdConfigValidateDeathTest, CatchesNonsenseFields)
{
    {
        ssd::SsdConfig cfg;
        cfg.geometry.channels = 0;
        EXPECT_DEATH(cfg.validate(), "geometry dimension");
    }
    {
        ssd::SsdConfig cfg;
        cfg.queueDepth = -1;
        EXPECT_DEATH(cfg.validate(), "queueDepth");
    }
    {
        ssd::SsdConfig cfg;
        cfg.hostGBps = 0.0;
        EXPECT_DEATH(cfg.validate(), "hostGBps");
    }
    {
        ssd::SsdConfig cfg;
        cfg.seqStepFactor = 0.0;
        EXPECT_DEATH(cfg.validate(), "seqStepFactor");
    }
    {
        ssd::SsdConfig cfg;
        cfg.coldAgeMinDays = cfg.refreshDays;
        EXPECT_DEATH(cfg.validate(), "coldAgeMinDays");
    }
}

// ---------------------------------------------------------------------
// Workload lookup helpers.
// ---------------------------------------------------------------------

TEST(WorkloadLookup, FindsEveryPaperWorkload)
{
    const auto names = trace::workloadNames();
    EXPECT_EQ(names.size(), trace::paperWorkloads().size());
    for (const auto &name : names) {
        const auto *spec = trace::findWorkload(name);
        ASSERT_NE(spec, nullptr) << name;
        EXPECT_EQ(spec->name, name);
    }
    EXPECT_EQ(trace::findWorkload("NotAWorkload"), nullptr);
    EXPECT_EQ(trace::findWorkload(""), nullptr);
}

// ---------------------------------------------------------------------
// bench:: scale helpers (satellite: overflow clamp + inf/nan rejection).
// ---------------------------------------------------------------------

TEST(BenchScaled, ClampsInsteadOfOverflowing)
{
    EXPECT_EQ(bench::scaled(1u << 20, 1e12),
              std::numeric_limits<int>::max());
    EXPECT_EQ(bench::scaled(std::numeric_limits<std::uint64_t>::max(),
                            1.0),
              std::numeric_limits<int>::max());
    EXPECT_EQ(bench::scaled(0, 1.0), 1);
    EXPECT_EQ(bench::scaled(100, 1e-9), 1);
    EXPECT_EQ(bench::scaled(1000, 0.5), 500);
}

TEST(BenchScaled, NonFiniteOrNonPositiveScalesFallBackToOne)
{
    EXPECT_EQ(bench::scaled(1000, std::nan("")), 1);
    EXPECT_EQ(bench::scaled(1000, INFINITY), 1);
    EXPECT_EQ(bench::scaled(1000, -INFINITY), 1);
    EXPECT_EQ(bench::scaled(1000, 0.0), 1);
    EXPECT_EQ(bench::scaled(1000, -2.0), 1);
}

} // namespace
} // namespace rif
