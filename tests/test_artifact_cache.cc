/**
 * @file
 * Tests of the content-addressed artifact cache: key construction,
 * hit-vs-miss equivalence for every cached artifact kind, the on-disk
 * layer (round trip, schema-version invalidation, corruption), the
 * --no-cache master switch, and the golden-CSV regression with caching
 * on and off.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/artifact_cache.h"
#include "core/scenario.h"
#include "ldpc/capability.h"
#include "nand/characterization.h"
#include "odear/accuracy.h"
#include "ssd/snapshot_cache.h"
#include "trace/trace.h"

#ifndef RIF_GOLDEN_DIR
#error "RIF_GOLDEN_DIR must point at tests/golden"
#endif

namespace rif {
namespace {

using core::ArtifactCache;

/** Reset the process-wide caches around every test in this file. */
class CacheGuard
{
  public:
    CacheGuard()
    {
        reset();
    }
    ~CacheGuard()
    {
        reset();
    }

  private:
    static void
    reset()
    {
        auto &cache = ArtifactCache::instance();
        cache.setEnabled(true);
        cache.setDiskDir("");
        cache.clear();
    }
};

ldpc::CapabilitySweepConfig
tinySweep()
{
    ldpc::CapabilitySweepConfig cfg;
    cfg.rbers = {0.004, 0.009};
    cfg.trials = 4;
    cfg.seed = 123;
    return cfg;
}

// ---------------------------------------------------------------------
// Keys.
// ---------------------------------------------------------------------

TEST(ArtifactHasher, KeysAreInputSensitive)
{
    Hasher a = core::artifactHasher("kind-a");
    Hasher b = core::artifactHasher("kind-b");
    EXPECT_FALSE(a.finish() == b.finish())
        << "the kind tag must separate key spaces";

    Hasher c = core::artifactHasher("kind-a");
    EXPECT_EQ(a.finish().hex(), c.finish().hex());

    a.add(std::uint64_t{1});
    c.add(std::uint64_t{2});
    EXPECT_FALSE(a.finish() == c.finish());
}

TEST(ArtifactHasher, HexIs32LowercaseDigits)
{
    const CacheKey key = core::artifactHasher("x").finish();
    const std::string hex = key.hex();
    ASSERT_EQ(hex.size(), 32u);
    for (char ch : hex)
        EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'))
            << "unexpected character '" << ch << "'";
}

// ---------------------------------------------------------------------
// Hit-vs-miss equivalence: a cache hit returns exactly what a rebuild
// would produce, for every artifact kind.
// ---------------------------------------------------------------------

TEST(ArtifactCacheEquivalence, RpThresholdHitMatchesDirectCall)
{
    CacheGuard guard;
    const auto code = core::cachedCode(ldpc::paperCode());
    const odear::RpConfig cfg;

    const std::size_t direct = odear::RpModule::calibrateThreshold(
        *code, cfg, 0.0085, 4, 1001);
    const std::size_t miss =
        core::cachedRpThreshold(*code, cfg, 0.0085, 4, 1001);
    const std::size_t hit =
        core::cachedRpThreshold(*code, cfg, 0.0085, 4, 1001);
    EXPECT_EQ(direct, miss);
    EXPECT_EQ(direct, hit);
}

TEST(ArtifactCacheEquivalence, CapabilitySweepHitMatchesDirectCall)
{
    CacheGuard guard;
    const auto code = core::cachedCode(ldpc::paperCode());
    const auto cfg = tinySweep();

    const ldpc::MinSumDecoder decoder(*code, 2);
    const auto direct = ldpc::measureCapability(*code, decoder, cfg);
    const auto miss = core::cachedCapabilitySweep(*code, 2, cfg);
    const auto hit = core::cachedCapabilitySweep(*code, 2, cfg);
    EXPECT_EQ(miss.get(), hit.get()) << "hit must share the entry";
    ASSERT_EQ(direct.size(), miss->size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(direct[i].rber, (*miss)[i].rber);
        EXPECT_EQ(direct[i].failureProbability,
                  (*miss)[i].failureProbability);
        EXPECT_EQ(direct[i].avgIterations, (*miss)[i].avgIterations);
        EXPECT_EQ(direct[i].avgSyndromeWeight,
                  (*miss)[i].avgSyndromeWeight);
        EXPECT_EQ(direct[i].avgPrunedSyndromeWeight,
                  (*miss)[i].avgPrunedSyndromeWeight);
    }
}

TEST(ArtifactCacheEquivalence, RetentionThresholdsHitMatchesDirectCall)
{
    CacheGuard guard;
    const nand::RberModel model;
    nand::CharacterizationConfig cfg;
    cfg.chips = 4;
    cfg.blocksPerChip = 2;
    const nand::BlockPopulation pop(model, cfg);

    const auto direct = pop.retentionThresholds(200.0);
    const auto cached =
        core::cachedRetentionThresholds(model, pop, cfg, 200.0);
    EXPECT_EQ(direct, *cached);

    // Different P/E level: different key, different fit.
    const auto other =
        core::cachedRetentionThresholds(model, pop, cfg, 500.0);
    EXPECT_NE(*cached, *other);
}

TEST(ArtifactCacheEquivalence, DisabledCacheStillComputesTheSameValue)
{
    CacheGuard guard;
    const auto code = core::cachedCode(ldpc::paperCode());
    const auto cfg = tinySweep();
    const auto enabled = core::cachedCapabilitySweep(*code, 2, cfg);

    ArtifactCache::instance().setEnabled(false);
    EXPECT_FALSE(ArtifactCache::instance().enabled());
    const auto disabled = core::cachedCapabilitySweep(*code, 2, cfg);
    ASSERT_EQ(enabled->size(), disabled->size());
    for (std::size_t i = 0; i < enabled->size(); ++i)
        EXPECT_EQ((*enabled)[i].failureProbability,
                  (*disabled)[i].failureProbability);
}

TEST(ArtifactCache, MasterSwitchAlsoTogglesTheFtlSnapshotCache)
{
    CacheGuard guard;
    ArtifactCache::instance().setEnabled(false);
    EXPECT_FALSE(ssd::FtlSnapshotCache::instance().enabled());
    ArtifactCache::instance().setEnabled(true);
    EXPECT_TRUE(ssd::FtlSnapshotCache::instance().enabled());
}

TEST(ArtifactCache, PreconditionKeyIsPinned)
{
    // Snapshot keys name the files of an existing --cache-dir: a change
    // to the hashed fields or their order must show up here, not as a
    // silently cold (or, worse, mismatched) disk cache.
    trace::WorkloadSpec spec;
    spec.name = "pin";
    spec.readRatio = 0.8;
    spec.coldReadRatio = 0.7;
    spec.footprintPages = 8192;
    trace::SyntheticWorkload src(spec, 1000, 5);
    const std::vector<trace::TraceSource *> sources{&src};
    Hasher h;
    ASSERT_TRUE(ssd::preconditionCacheKey(h, ssd::SsdConfig{},
                                          src.footprintPages(), sources));
    EXPECT_EQ(h.finish().hex(), "e3d1f19ddfc31106826302a3d47b3653");
}

// ---------------------------------------------------------------------
// Disk layer.
// ---------------------------------------------------------------------

std::string
freshDiskDir(const char *name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ArtifactCacheDisk, RoundTripsThroughTheDiskLayer)
{
    CacheGuard guard;
    auto &cache = ArtifactCache::instance();
    cache.setDiskDir(freshDiskDir("rif_cache_roundtrip"));

    const auto code = core::cachedCode(ldpc::paperCode());
    const auto cfg = tinySweep();
    const auto built = core::cachedCapabilitySweep(*code, 2, cfg);

    // Drop the in-memory entries; the reload must come from disk.
    cache.clear();
    const std::uint64_t disk_before = cache.diskHits();
    const auto reloaded = core::cachedCapabilitySweep(*code, 2, cfg);
    EXPECT_EQ(cache.diskHits(), disk_before + 1);
    ASSERT_EQ(built->size(), reloaded->size());
    for (std::size_t i = 0; i < built->size(); ++i) {
        // Bit-exact through the encode/decode pair.
        EXPECT_EQ((*built)[i].rber, (*reloaded)[i].rber);
        EXPECT_EQ((*built)[i].failureProbability,
                  (*reloaded)[i].failureProbability);
        EXPECT_EQ((*built)[i].avgIterations,
                  (*reloaded)[i].avgIterations);
        EXPECT_EQ((*built)[i].avgSyndromeWeight,
                  (*reloaded)[i].avgSyndromeWeight);
        EXPECT_EQ((*built)[i].avgPrunedSyndromeWeight,
                  (*reloaded)[i].avgPrunedSyndromeWeight);
    }
}

TEST(ArtifactCacheDisk, RejectsWrongSchemaVersionAndRebuilds)
{
    CacheGuard guard;
    auto &cache = ArtifactCache::instance();
    cache.setDiskDir(freshDiskDir("rif_cache_schema"));

    const nand::RberModel model;
    nand::CharacterizationConfig cfg;
    cfg.chips = 2;
    cfg.blocksPerChip = 2;
    const nand::BlockPopulation pop(model, cfg);
    const auto built =
        core::cachedRetentionThresholds(model, pop, cfg, 100.0);

    // Locate the file the build just wrote (the directory holds exactly
    // one entry) and bump its schema field: bytes 4..7, after the
    // 4-byte magic.
    std::string path;
    for (const auto &e :
         std::filesystem::directory_iterator(cache.diskDir()))
        path = e.path().string();
    ASSERT_FALSE(path.empty());
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(4);
        const std::uint32_t bogus = 0xdeadbeef;
        f.write(reinterpret_cast<const char *>(&bogus), sizeof(bogus));
    }

    cache.clear();
    const std::uint64_t disk_before = cache.diskHits();
    const std::uint64_t miss_before = cache.misses();
    const auto rebuilt =
        core::cachedRetentionThresholds(model, pop, cfg, 100.0);
    EXPECT_EQ(cache.diskHits(), disk_before)
        << "a wrong schema version must not be decoded";
    EXPECT_EQ(cache.misses(), miss_before + 1);
    EXPECT_EQ(*built, *rebuilt);

    // The rebuild re-publishes a loadable entry.
    cache.clear();
    const auto reloaded =
        core::cachedRetentionThresholds(model, pop, cfg, 100.0);
    EXPECT_EQ(cache.diskHits(), disk_before + 1);
    EXPECT_EQ(*built, *reloaded);
}

TEST(ArtifactCacheDisk, RejectsTruncatedFiles)
{
    CacheGuard guard;
    auto &cache = ArtifactCache::instance();
    cache.setDiskDir(freshDiskDir("rif_cache_trunc"));

    const nand::RberModel model;
    nand::CharacterizationConfig cfg;
    cfg.chips = 2;
    cfg.blocksPerChip = 2;
    const nand::BlockPopulation pop(model, cfg);
    const auto built =
        core::cachedRetentionThresholds(model, pop, cfg, 100.0);

    std::string path;
    for (const auto &e :
         std::filesystem::directory_iterator(cache.diskDir()))
        path = e.path().string();
    ASSERT_FALSE(path.empty());
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);

    cache.clear();
    const std::uint64_t disk_before = cache.diskHits();
    const auto rebuilt =
        core::cachedRetentionThresholds(model, pop, cfg, 100.0);
    EXPECT_EQ(cache.diskHits(), disk_before);
    EXPECT_EQ(*built, *rebuilt);
}

TEST(ArtifactCacheDisk, DiskPathNamesFilesByKindAndKey)
{
    CacheGuard guard;
    auto &cache = ArtifactCache::instance();
    EXPECT_EQ(cache.diskPath("k", CacheKey{}), "")
        << "no disk dir, no path";
    cache.setDiskDir(freshDiskDir("rif_cache_path"));
    const CacheKey key = core::artifactHasher("k").finish();
    const std::string path = cache.diskPath("k", key);
    EXPECT_EQ(path,
              cache.diskDir() + "/k-" + key.hex() + ".rifa");
}

// ---------------------------------------------------------------------
// Golden regression with caching on and off: memoization must be
// invisible in every scenario's output.
// ---------------------------------------------------------------------

std::string
renderCsv(const core::Scenario &scenario)
{
    std::ostringstream os;
    core::CsvSink sink(os);
    const core::OptionSet no_overrides;
    core::runScenario(scenario, sink, 0.05, no_overrides);
    return os.str();
}

std::string
readGolden(const std::string &name)
{
    const std::string path =
        std::string(RIF_GOLDEN_DIR) + "/" + name + ".csv";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(ArtifactCacheGolden, CachedScenariosMatchGoldensCacheOnAndOff)
{
    CacheGuard guard;
    // The scenarios that consult the artifact cache.
    const char *names[] = {"fig03_ldpc_capability", "fig04_retention",
                           "fig10_syndrome_corr", "fig11_14_rp_accuracy",
                           "ablation_threshold"};
    for (const char *name : names) {
        const core::Scenario *s =
            core::ScenarioRegistry::instance().find(name);
        ASSERT_NE(s, nullptr) << name;
        const std::string want = readGolden(name);

        ArtifactCache::instance().setEnabled(true);
        ArtifactCache::instance().clear();
        const std::string cold = renderCsv(*s);
        const std::string warm = renderCsv(*s);
        ArtifactCache::instance().setEnabled(false);
        const std::string off = renderCsv(*s);
        ArtifactCache::instance().setEnabled(true);

        EXPECT_EQ(cold, want) << name << " (cache on, cold)";
        EXPECT_EQ(warm, want) << name << " (cache on, warm)";
        EXPECT_EQ(off, want) << name << " (cache off)";
    }
}

} // namespace
} // namespace rif
