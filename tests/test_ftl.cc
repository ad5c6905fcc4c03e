/**
 * @file
 * Tests of the FTL: preconditioning, translation, retention-age
 * assignment (cold vs hot), write allocation/invalidations, read-disturb
 * accounting, the garbage-collection lifecycle and the running
 * free-space counters behind nextGcJob() and writePressureCritical(),
 * and snapshot restores (closed-form mapping, write overrides, shared
 * retention ages) against in-place preconditioning.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>

#include "common/hash.h"
#include "ssd/ftl.h"
#include "ssd/snapshot_cache.h"

namespace rif {
namespace ssd {
namespace {

SsdConfig
tinyConfig()
{
    SsdConfig cfg;
    cfg.geometry = nand::tinyGeometry();
    cfg.peCycles = 1000.0;
    return cfg;
}

TEST(Ftl, PreconditionMapsEveryPage)
{
    const SsdConfig cfg = tinyConfig();
    Ftl ftl(cfg, Rng(1));
    const std::uint64_t footprint = 4096;
    ftl.precondition(footprint, footprint / 2);
    EXPECT_EQ(ftl.footprintPages(), footprint);
    EXPECT_EQ(ftl.validPages(), footprint);
    std::set<std::pair<int, int>> planes_seen;
    for (std::uint64_t lpn = 0; lpn < footprint; ++lpn) {
        const ReadTranslation tr = ftl.translateRead(lpn);
        EXPECT_LT(tr.addr.channel, cfg.geometry.channels);
        EXPECT_LT(tr.addr.die, cfg.geometry.diesPerChannel);
        EXPECT_LT(tr.addr.plane, cfg.geometry.planesPerDie);
        EXPECT_LT(tr.addr.block, cfg.geometry.blocksPerPlane);
        EXPECT_LT(tr.addr.page, cfg.geometry.pagesPerBlock);
        EXPECT_GT(tr.rber, 0.0);
        planes_seen.insert({tr.addr.die, tr.addr.plane});
    }
    // Striping spreads the footprint across every plane of the tiny
    // geometry (2 dies x 4 planes).
    EXPECT_EQ(planes_seen.size(), 8u);
}

TEST(Ftl, ColdPagesAgeOlderThanHot)
{
    const SsdConfig cfg = tinyConfig();
    Ftl ftl(cfg, Rng(2));
    const std::uint64_t footprint = 8192;
    const std::uint64_t cold_start = footprint / 2;
    ftl.precondition(footprint, cold_start);

    double hot_rber = 0.0, cold_rber = 0.0;
    for (std::uint64_t lpn = 0; lpn < cold_start; ++lpn)
        hot_rber += ftl.translateRead(lpn).rber;
    for (std::uint64_t lpn = cold_start; lpn < footprint; ++lpn)
        cold_rber += ftl.translateRead(lpn).rber;
    hot_rber /= cold_start;
    cold_rber /= (footprint - cold_start);
    // Cold data carries the refresh-window retention age and therefore
    // far higher RBER — the driver of the cold-read retry behaviour.
    EXPECT_GT(cold_rber, 2.0 * hot_rber);
}

TEST(Ftl, RepeatedReadsAccumulateDisturb)
{
    const SsdConfig cfg = tinyConfig();
    Ftl ftl(cfg, Rng(3));
    ftl.precondition(1024, 512);
    const double first = ftl.translateRead(700).rber;
    double last = first;
    for (int i = 0; i < 20000; ++i)
        last = ftl.translateRead(700).rber;
    EXPECT_GT(last, first);
}

TEST(Ftl, WriteMovesAndInvalidates)
{
    const SsdConfig cfg = tinyConfig();
    Ftl ftl(cfg, Rng(4));
    ftl.precondition(1024, 512);
    const ReadTranslation before = ftl.translateRead(600);
    const double old_rber = before.rber;
    const nand::PhysAddr a = ftl.allocateWrite(600);
    const ReadTranslation after = ftl.translateRead(600);
    EXPECT_TRUE(after.addr == a);
    EXPECT_FALSE(after.addr == before.addr);
    // The rewrite resets retention: fresher data, lower RBER.
    EXPECT_LT(after.rber, old_rber);
    EXPECT_EQ(ftl.validPages(), 1024u);
}

TEST(Ftl, UnmappedReadIsServedLazily)
{
    const SsdConfig cfg = tinyConfig();
    Ftl ftl(cfg, Rng(5));
    ftl.precondition(1024, 512);
    // Footprint holds but a fill below 1.0 leaves tail pages unmapped.
    // (Exercised through a second FTL with partial preconditioning.)
    SsdConfig partial = cfg;
    partial.preconditionFill = 0.5;
    Ftl ftl2(partial, Rng(5));
    ftl2.precondition(1024, 512);
    const ReadTranslation tr = ftl2.translateRead(1023);
    EXPECT_GE(tr.rber, 0.0);
    EXPECT_EQ(ftl2.translateRead(1023).addr.block, tr.addr.block);
}

TEST(Ftl, GcReclaimsInvalidatedBlocks)
{
    SsdConfig cfg = tinyConfig();
    cfg.gcFreeBlockThreshold = 8;
    Ftl ftl(cfg, Rng(6));
    const std::uint64_t footprint = 12000; // ~73% of tiny capacity
    ftl.precondition(footprint, footprint);

    // Churn a hot set until some plane drops below the watermark.
    Rng rng(7);
    bool gc_seen = false;
    for (int round = 0; round < 200000 && !gc_seen; ++round) {
        ftl.allocateWrite(rng.below(2048));
        GcJob job;
        while (ftl.nextGcJob(job)) {
            gc_seen = true;
            // Relocate every still-valid page, then erase.
            for (std::uint64_t lpn : job.lpnsToMove)
                ftl.allocateWrite(lpn);
            ftl.completeErase(job);
        }
    }
    EXPECT_TRUE(gc_seen);
    EXPECT_GT(ftl.erasesPerformed(), 0u);
    EXPECT_EQ(ftl.validPages(), footprint);
    // All planes recovered above (or at least to) a sane free level.
    for (int c = 0; c < cfg.geometry.channels; ++c)
        for (int d = 0; d < cfg.geometry.diesPerChannel; ++d)
            for (int p = 0; p < cfg.geometry.planesPerDie; ++p)
                EXPECT_GT(ftl.freeBlocksInPlane(c, d, p), 0);
}

TEST(Ftl, GcPrefersSparseVictims)
{
    SsdConfig cfg = tinyConfig();
    cfg.gcFreeBlockThreshold = cfg.geometry.blocksPerPlane; // always GC
    Ftl ftl(cfg, Rng(8));
    const std::uint64_t footprint = 12000;
    ftl.precondition(footprint, footprint);
    // Invalidate a dense run of early LPNs: early-filled blocks become
    // sparse victims.
    for (std::uint64_t lpn = 0; lpn < 4000; ++lpn)
        ftl.allocateWrite(lpn);
    GcJob job;
    ASSERT_TRUE(ftl.nextGcJob(job));
    EXPECT_LT(job.lpnsToMove.size(),
              static_cast<std::size_t>(cfg.geometry.pagesPerBlock))
        << "victim should have invalid pages";
}

TEST(Ftl, FreeSpaceCountersMatchRecount)
{
    // Seeded random host writes, GC probes and (deferred) erase
    // completions; after every step the running counters must agree
    // with a recount over the per-plane free lists.
    for (std::uint64_t seed : {21u, 22u, 23u}) {
        SsdConfig cfg = tinyConfig();
        cfg.gcFreeBlockThreshold = 4;
        const auto &g = cfg.geometry;
        Ftl ftl(cfg, Rng(seed));
        const std::uint64_t footprint = 12000;
        ftl.precondition(footprint, footprint);

        Rng rng(seed * 7);
        std::deque<GcJob> inFlight;
        for (int step = 0; step < 20000; ++step) {
            std::uint64_t total = 0;
            bool anyLow = false;
            for (int c = 0; c < g.channels; ++c)
                for (int d = 0; d < g.diesPerChannel; ++d)
                    for (int p = 0; p < g.planesPerDie; ++p) {
                        const int n = ftl.freeBlocksInPlane(c, d, p);
                        total += static_cast<std::uint64_t>(n);
                        anyLow |= n < cfg.gcFreeBlockThreshold;
                    }
            ASSERT_EQ(ftl.totalFreeBlocks(), total)
                << "seed=" << seed << " step=" << step;
            ASSERT_EQ(ftl.writePressureCritical(),
                      total <= static_cast<std::uint64_t>(g.totalPlanes()))
                << "seed=" << seed << " step=" << step;

            const std::uint64_t kind = rng.below(10);
            if (kind < 6) {
                if (!ftl.writePressureCritical())
                    ftl.allocateWrite(rng.below(footprint));
            } else if (kind < 8 && inFlight.size() < 3) {
                GcJob job;
                const bool found = ftl.nextGcJob(job);
                // No low plane: no job. A low plane and no job in
                // flight: its full blocks are all eligible victims.
                if (!anyLow) {
                    ASSERT_FALSE(found) << "seed=" << seed
                                        << " step=" << step;
                }
                if (anyLow && inFlight.empty()) {
                    ASSERT_TRUE(found) << "seed=" << seed
                                       << " step=" << step;
                }
                if (found) {
                    EXPECT_LT(ftl.freeBlocksInPlane(job.channel, job.die,
                                                    job.plane),
                              cfg.gcFreeBlockThreshold);
                    inFlight.push_back(std::move(job));
                }
            } else if (!inFlight.empty()) {
                const GcJob job = std::move(inFlight.front());
                inFlight.pop_front();
                for (std::uint64_t lpn : job.lpnsToMove)
                    ftl.allocateWrite(lpn);
                ftl.completeErase(job);
            }
        }
        EXPECT_GT(ftl.erasesPerformed(), 0u) << "seed=" << seed;
        EXPECT_EQ(ftl.validPages(), footprint) << "seed=" << seed;
    }
}

TEST(Ftl, ReadDisturbTriggersRelocation)
{
    SsdConfig cfg = tinyConfig();
    cfg.readDisturbThreshold = 500;
    Ftl ftl(cfg, Rng(10));
    ftl.precondition(8192, 8192); // all hot

    // Hammer one LPN until its block crosses the disturb threshold.
    const ReadTranslation first = ftl.translateRead(123);
    for (int i = 0; i < 600; ++i)
        ftl.translateRead(123);

    GcJob job;
    ASSERT_TRUE(ftl.nextReadDisturbJob(job));
    EXPECT_EQ(job.block, first.addr.block);
    EXPECT_EQ(job.channel, first.addr.channel);
    EXPECT_FALSE(job.lpnsToMove.empty());
    // Relocate and erase; the block's counter resets with reuse.
    for (std::uint64_t lpn : job.lpnsToMove)
        ftl.allocateWrite(lpn);
    ftl.completeErase(job);
    EXPECT_EQ(ftl.validPages(), 8192u);
    // The hammered LPN moved somewhere else.
    EXPECT_FALSE(ftl.translateRead(123).addr == first.addr);
}

TEST(Ftl, ReadDisturbDisabledByZeroThreshold)
{
    SsdConfig cfg = tinyConfig();
    cfg.readDisturbThreshold = 0;
    Ftl ftl(cfg, Rng(11));
    ftl.precondition(2048, 2048);
    for (int i = 0; i < 5000; ++i)
        ftl.translateRead(7);
    GcJob job;
    EXPECT_FALSE(ftl.nextReadDisturbJob(job));
}

TEST(Ftl, DisturbedBlockRberGrowsUntilRelocated)
{
    SsdConfig cfg = tinyConfig();
    cfg.readDisturbThreshold = 100000;
    Ftl ftl(cfg, Rng(12));
    ftl.precondition(2048, 2048);
    const double before = ftl.translateRead(50).rber;
    for (int i = 0; i < 90000; ++i)
        ftl.translateRead(50);
    const double disturbed = ftl.translateRead(50).rber;
    EXPECT_GT(disturbed, before);
}

TEST(Ftl, FootprintGuard)
{
    const SsdConfig cfg = tinyConfig();
    Ftl ftl(cfg, Rng(9));
    const std::uint64_t capacity = cfg.geometry.totalPages();
    EXPECT_DEATH(ftl.precondition(capacity, capacity), "footprint");
}

TEST(Ftl, SnapshotRestoreEqualsFreshPrecondition)
{
    const SsdConfig cfg = tinyConfig();
    const std::uint64_t footprint = 4096;

    Ftl fresh(cfg, Rng(7));
    fresh.precondition(footprint, footprint / 2);

    Ftl source(cfg, Rng(7));
    source.precondition(footprint, footprint / 2);
    const FtlSnapshot snap = source.snapshot();

    // A freshly constructed FTL (same config + ctor seed) restored from
    // the snapshot must be indistinguishable from one that ran the full
    // precondition itself.
    Ftl restored(cfg, Rng(7));
    restored.restore(snap);

    ASSERT_EQ(restored.footprintPages(), fresh.footprintPages());
    EXPECT_EQ(restored.validPages(), fresh.validPages());
    EXPECT_EQ(restored.totalFreeBlocks(), fresh.totalFreeBlocks());
    for (std::uint64_t lpn = 0; lpn < footprint; ++lpn) {
        const ReadTranslation a = fresh.translateRead(lpn);
        const ReadTranslation b = restored.translateRead(lpn);
        EXPECT_EQ(a.addr.channel, b.addr.channel);
        EXPECT_EQ(a.addr.die, b.addr.die);
        EXPECT_EQ(a.addr.plane, b.addr.plane);
        EXPECT_EQ(a.addr.block, b.addr.block);
        EXPECT_EQ(a.addr.page, b.addr.page);
        EXPECT_EQ(a.type, b.type);
        // Bit-exact RBER: retention ages and block factors both match.
        EXPECT_EQ(a.rber, b.rber);
    }

    // The drives keep evolving in lockstep after the restore.
    for (std::uint64_t lpn = 0; lpn < 64; ++lpn) {
        const nand::PhysAddr wa = fresh.allocateWrite(lpn);
        const nand::PhysAddr wb = restored.allocateWrite(lpn);
        EXPECT_EQ(wa.block, wb.block);
        EXPECT_EQ(wa.page, wb.page);
        EXPECT_EQ(fresh.translateRead(lpn).rber,
                  restored.translateRead(lpn).rber);
    }
}

/**
 * Drive three FTLs of one configuration in lockstep: one restored from
 * a snapshot, one freshly preconditioned, and an oracle that writes the
 * install layout page by page through allocateWrite, so its reverse map
 * holds every page. Host writes, reads (a hot set, to trip the
 * read-disturb threshold), GC and read-disturb relocation must pick the
 * same victims and move the same LPNs in all three; relocation of an
 * installed page computes its LPN from the closed-form layout.
 */
void
expectLockstep(const SsdConfig &cfg, std::uint64_t footprint)
{
    const std::uint64_t cold_start = footprint / 2;
    Ftl fresh(cfg, Rng(21));
    fresh.precondition(footprint, cold_start);
    Ftl source(cfg, Rng(21));
    source.precondition(footprint, cold_start);
    Ftl restored(cfg, Rng(21));
    restored.restore(source.snapshot());

    // The oracle's round-robin write cursor ends where the installed
    // FTLs' starts only if the fill is a whole number of plane rows.
    const std::uint64_t filled = static_cast<std::uint64_t>(
        static_cast<double>(footprint) * cfg.preconditionFill);
    const std::uint64_t nplanes = cfg.geometry.totalPlanes();
    ASSERT_EQ(filled % nplanes, 0u);
    SsdConfig empty = cfg;
    empty.preconditionFill = 0.0;
    Ftl oracle(empty, Rng(21));
    oracle.precondition(footprint, cold_start);
    for (std::uint64_t lpn = 0; lpn < filled; ++lpn)
        oracle.allocateWrite(lpn);

    Ftl *const ftls[] = {&fresh, &restored, &oracle};
    const auto expect_same_state = [&] {
        for (const Ftl *f : {&restored, &oracle}) {
            ASSERT_EQ(f->validPages(), fresh.validPages());
            ASSERT_EQ(f->totalFreeBlocks(), fresh.totalFreeBlocks());
            ASSERT_EQ(f->erasesPerformed(), fresh.erasesPerformed());
        }
    };
    const auto expect_same_read = [&](std::uint64_t lpn) {
        const ReadTranslation a = fresh.translateRead(lpn);
        const ReadTranslation b = restored.translateRead(lpn);
        const ReadTranslation c = oracle.translateRead(lpn);
        ASSERT_TRUE(a.addr == b.addr) << "lpn " << lpn;
        ASSERT_TRUE(a.addr == c.addr) << "lpn " << lpn;
        ASSERT_EQ(a.type, b.type);
        ASSERT_EQ(a.type, c.type);
        // Retention ages match only between the two installed FTLs.
        ASSERT_EQ(a.rber, b.rber) << "lpn " << lpn;
    };
    expect_same_state();

    std::uint64_t gc_jobs = 0;
    std::uint64_t disturb_jobs = 0;
    std::uint64_t moved = 0;
    Rng ops(99);
    for (int step = 0; step < 40000; ++step) {
        // The checks run in lambdas, whose ASSERTs return only from
        // the lambda: stop at the first divergence.
        if (::testing::Test::HasFatalFailure())
            return;
        if (ops.chance(0.3)) {
            expect_same_read(static_cast<std::uint64_t>(ops.uniform() * 64));
        } else {
            const auto lpn = static_cast<std::uint64_t>(
                ops.uniform() * static_cast<double>(footprint));
            const nand::PhysAddr a = fresh.allocateWrite(lpn);
            ASSERT_TRUE(restored.allocateWrite(lpn) == a);
            ASSERT_TRUE(oracle.allocateWrite(lpn) == a);
        }
        for (;;) {
            GcJob jobs[3];
            bool gc = true;
            if (!fresh.nextGcJob(jobs[0])) {
                gc = false;
                if (!fresh.nextReadDisturbJob(jobs[0]))
                    break;
            }
            for (int i = 1; i < 3; ++i) {
                ASSERT_TRUE(gc ? ftls[i]->nextGcJob(jobs[i])
                               : ftls[i]->nextReadDisturbJob(jobs[i]));
                ASSERT_EQ(jobs[i].channel, jobs[0].channel);
                ASSERT_EQ(jobs[i].die, jobs[0].die);
                ASSERT_EQ(jobs[i].plane, jobs[0].plane);
                ASSERT_EQ(jobs[i].block, jobs[0].block);
                ASSERT_EQ(jobs[i].lpnsToMove, jobs[0].lpnsToMove);
            }
            ++(gc ? gc_jobs : disturb_jobs);
            moved += jobs[0].lpnsToMove.size();
            for (int i = 0; i < 3; ++i) {
                for (const std::uint64_t lpn : jobs[i].lpnsToMove)
                    ftls[i]->allocateWrite(lpn);
                ftls[i]->completeErase(jobs[i]);
            }
            expect_same_state();
        }
    }
    EXPECT_GT(gc_jobs, 0u);
    EXPECT_GT(disturb_jobs, 0u);
    EXPECT_GT(moved, 0u);
    for (std::uint64_t lpn = 0; lpn < footprint; ++lpn)
        expect_same_read(lpn);
    expect_same_state();
}

SsdConfig
lockstepConfig()
{
    SsdConfig cfg = tinyConfig();
    cfg.readDisturbThreshold = 200;
    return cfg;
}

TEST(FtlLockstep, PlanesSpanSeveralBlocksWithPartlyFilledActiveBlock)
{
    // 9000 / 8 planes = 1125 pages per plane: 17 full blocks plus an
    // active block holding 37 installed pages.
    expectLockstep(lockstepConfig(), 9000);
}

TEST(FtlLockstep, WholeBlocksPerPlane)
{
    // 64 pages x 8 planes x 16 blocks: no active block after install.
    expectLockstep(lockstepConfig(), 64 * 8 * 16);
}

TEST(FtlLockstep, PartialPreconditionFill)
{
    SsdConfig cfg = lockstepConfig();
    cfg.preconditionFill = 0.6;
    // 6000 installed pages (750 per plane, an active block of 46);
    // the rest map lazily on first touch.
    expectLockstep(cfg, 10000);
}

TEST(FtlLockstep, HybridSlcBlocks)
{
    SsdConfig cfg = lockstepConfig();
    cfg.slcBlockFraction = 0.25;
    expectLockstep(cfg, 9000);
}

/**
 * A seeded random script — host writes, reads of never-written LPNs
 * (fill < 1), a read-disturb hot set, GC and read-disturb relocation —
 * on three FTLs of one small geometry in lockstep: one preconditioned
 * in place, one restored from its snapshot through the cache (which is
 * cleared before the script starts, so the restored drive lives on the
 * shared ages alone), and a twin whose every installed age is 0. After
 * every step the first two agree on translations (address, type, RBER),
 * jobs, valid pages and free blocks. Aimed rewrites send an installed
 * LPN back to its own closed-form page after GC erased and reopened
 * that block; the page then reads at age 0, like the twin.
 */
TEST(FtlSnapshot, RestoredDriveFollowsInPlaceThroughRandomScript)
{
    SsdConfig cfg = tinyConfig();
    cfg.geometry.blocksPerPlane = 12;
    cfg.preconditionFill = 0.75;
    cfg.readDisturbThreshold = 150;
    cfg.coldAgeMinDays = 5.0; // every installed age is far from 0
    const auto &g = cfg.geometry;
    const std::uint64_t footprint = 4000;
    const std::uint64_t filled = 3000; // fill 0.75: 375 pages per plane
    const std::uint64_t nplanes = g.totalPlanes();
    const std::uint64_t ppb = g.pagesPerBlock;

    Ftl in_place(cfg, Rng(31));
    Ftl restored(cfg, Rng(31));
    {
        Hasher h;
        h.add("test_ftl restore script");
        auto &cache = FtlSnapshotCache::instance();
        std::shared_ptr<const FtlSnapshot> snap =
            cache.getOrBuild(h.finish(), [&] {
                in_place.precondition(footprint, 0); // all cold
                return in_place.snapshot();
            });
        restored.restore(*snap);
        snap.reset();
        cache.clear();
    }
    SsdConfig zero_cfg = cfg;
    zero_cfg.hotAgeDays = 0.0;
    Ftl zero_age(zero_cfg, Rng(31));
    zero_age.precondition(footprint, footprint); // all hot, age 0
    // Same factors, other ages: the twin tells a drawn age from 0.
    ASSERT_NE(in_place.translateRead(0).rber,
              zero_age.translateRead(0).rber);
    restored.translateRead(0); // read counts stay in lockstep

    Ftl *const ftls[] = {&in_place, &restored, &zero_age};
    const auto same_state = [&] {
        ASSERT_EQ(restored.validPages(), in_place.validPages());
        ASSERT_EQ(zero_age.validPages(), in_place.validPages());
        ASSERT_EQ(restored.totalFreeBlocks(), in_place.totalFreeBlocks());
        for (int c = 0; c < g.channels; ++c)
            for (int d = 0; d < g.diesPerChannel; ++d)
                for (int p = 0; p < g.planesPerDie; ++p)
                    ASSERT_EQ(restored.freeBlocksInPlane(c, d, p),
                              in_place.freeBlocksInPlane(c, d, p));
    };
    const auto read = [&](std::uint64_t lpn) {
        const ReadTranslation a = in_place.translateRead(lpn);
        const ReadTranslation b = restored.translateRead(lpn);
        const ReadTranslation z = zero_age.translateRead(lpn);
        EXPECT_TRUE(a.addr == b.addr) << "lpn " << lpn;
        EXPECT_TRUE(a.addr == z.addr) << "lpn " << lpn;
        EXPECT_EQ(a.type, b.type) << "lpn " << lpn;
        EXPECT_EQ(a.rber, b.rber) << "lpn " << lpn;
        return std::make_pair(a, z);
    };

    // The test's view of the allocator: the plane the next host write
    // goes to, each plane's next free page in its open block, and the
    // blocks GC has erased.
    struct OpenBlock
    {
        int block = -1;
        int page = 0;
    };
    std::vector<OpenBlock> open(nplanes);
    std::set<std::pair<std::uint64_t, int>> erased;
    std::uint64_t cursor = 0;
    const auto plane_of = [&](const nand::PhysAddr &a) {
        return (static_cast<std::uint64_t>(a.channel) * g.diesPerChannel +
                a.die) * g.planesPerDie + a.plane;
    };
    const auto allocated = [&](const nand::PhysAddr &a) {
        OpenBlock &o = open[plane_of(a)];
        o = a.page + 1 < g.pagesPerBlock ? OpenBlock{a.block, a.page + 1}
                                         : OpenBlock{};
    };
    std::set<std::uint64_t> touched; // LPNs at or past `filled` mapped
    const auto write = [&](std::uint64_t lpn) {
        if (lpn >= filled)
            touched.insert(lpn);
        const nand::PhysAddr a = in_place.allocateWrite(lpn);
        EXPECT_TRUE(restored.allocateWrite(lpn) == a) << "lpn " << lpn;
        EXPECT_TRUE(zero_age.allocateWrite(lpn) == a) << "lpn " << lpn;
        allocated(a);
        cursor = (plane_of(a) + 1) % nplanes;
        return a;
    };

    std::uint64_t lazy_reads = 0, gc_jobs = 0, disturb_jobs = 0,
                  home_rewrites = 0;
    // Aim a rewrite at the next page of the cursor plane's open block,
    // if GC erased that layout block before: the LPN whose closed-form
    // page it is goes back home.
    const auto rewrite_home = [&] {
        const std::uint64_t aim = cursor;
        const OpenBlock o = open[aim];
        if (o.block < 0 || !erased.count({aim, o.block}))
            return;
        const std::uint64_t home =
            (static_cast<std::uint64_t>(o.block) * ppb + o.page) *
                nplanes + aim;
        if (home >= filled)
            return;
        const nand::PhysAddr a = write(home);
        if (plane_of(a) != aim || a.block != o.block || a.page != o.page)
            return; // a plane out of space was skipped
        ++home_rewrites;
        const auto [got, zero] = read(home);
        EXPECT_EQ(got.rber, zero.rber)
            << "rewritten page at its closed-form PPN reads a drawn age";
    };
    Rng ops(77);
    for (int step = 0; step < 30000 && !HasFailure(); ++step) {
        const std::uint64_t kind = ops.below(10);
        if (kind < 4) {
            write(ops.below(footprint));
        } else if (kind < 5) {
            rewrite_home();
        } else if (kind < 6) {
            const std::uint64_t lpn = filled + ops.below(footprint - filled);
            if (touched.insert(lpn).second) {
                ++lazy_reads;
                allocated(read(lpn).first.addr);
            } else {
                read(lpn);
            }
        } else if (kind < 8) {
            read(ops.below(4) * nplanes); // hot set: read disturb
        } else {
            read(ops.below(footprint));
        }
        for (int guard = 0;; ++guard) {
            ASSERT_LT(guard, 1000) << "GC made no progress";
            GcJob jobs[3];
            bool gc = true;
            if (!in_place.nextGcJob(jobs[0])) {
                gc = false;
                if (!in_place.nextReadDisturbJob(jobs[0]))
                    break;
            }
            for (int i = 1; i < 3; ++i) {
                ASSERT_TRUE(gc ? ftls[i]->nextGcJob(jobs[i])
                               : ftls[i]->nextReadDisturbJob(jobs[i]));
                ASSERT_EQ(jobs[i].channel, jobs[0].channel);
                ASSERT_EQ(jobs[i].die, jobs[0].die);
                ASSERT_EQ(jobs[i].plane, jobs[0].plane);
                ASSERT_EQ(jobs[i].block, jobs[0].block);
                ASSERT_EQ(jobs[i].lpnsToMove, jobs[0].lpnsToMove);
            }
            ++(gc ? gc_jobs : disturb_jobs);
            for (const std::uint64_t lpn : jobs[0].lpnsToMove)
                write(lpn);
            for (int i = 0; i < 3; ++i)
                ftls[i]->completeErase(jobs[i]);
            const std::uint64_t pi = plane_of(
                nand::PhysAddr{jobs[0].channel, jobs[0].die,
                               jobs[0].plane, jobs[0].block, 0});
            erased.insert({pi, jobs[0].block});
            if (open[pi].block == jobs[0].block)
                open[pi] = OpenBlock{};
        }
        same_state();
    }
    EXPECT_GT(lazy_reads, 0u);
    EXPECT_GT(gc_jobs, 0u);
    EXPECT_GT(disturb_jobs, 0u);
    EXPECT_GT(home_rewrites, 0u);
    for (std::uint64_t lpn = 0; lpn < footprint; ++lpn)
        read(lpn);
    same_state();
}

TEST(Ftl, HybridSlcBlocksReadAsLsbWithScaledRber)
{
    SsdConfig cfg = tinyConfig();
    cfg.slcBlockFraction = 0.5;
    cfg.slcRberFactor = 0.02;
    Ftl hybrid(cfg, Rng(7));
    cfg.slcBlockFraction = 0.0;
    Ftl native(cfg, Rng(7));
    const std::uint64_t footprint = 4096;
    hybrid.precondition(footprint, footprint / 2);
    native.precondition(footprint, footprint / 2);

    const int slc_blocks =
        static_cast<int>(0.5 * cfg.geometry.blocksPerPlane);
    ASSERT_GT(slc_blocks, 0);
    std::uint64_t slc_reads = 0;
    for (std::uint64_t lpn = 0; lpn < footprint; ++lpn) {
        const ReadTranslation h = hybrid.translateRead(lpn);
        const ReadTranslation n = native.translateRead(lpn);
        // Same seed and geometry: the physical layout is identical;
        // only the SLC-mode typing and RBER scaling may differ.
        ASSERT_EQ(h.addr.block, n.addr.block);
        ASSERT_EQ(h.addr.page, n.addr.page);
        if (h.addr.block < slc_blocks) {
            ++slc_reads;
            EXPECT_EQ(h.type, nand::PageType::Lsb);
            // SLC-mode reads sense one wide threshold: far below the
            // native RBER at any page type...
            EXPECT_LT(h.rber, n.rber);
            // ...and exactly the scaled Lsb RBER where the native
            // page is itself an Lsb page.
            if (n.type == nand::PageType::Lsb) {
                EXPECT_DOUBLE_EQ(h.rber, n.rber * cfg.slcRberFactor);
            }
        } else {
            EXPECT_EQ(h.type, n.type);
            EXPECT_EQ(h.rber, n.rber);
        }
    }
    EXPECT_GT(slc_reads, 0u);
}

} // namespace
} // namespace ssd
} // namespace rif
