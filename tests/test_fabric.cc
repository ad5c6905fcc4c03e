/** Tests for the rack-scale fabric: placement address math, the
 *  interconnect link model, per-drive seed forking, and the fleet's
 *  equivalence/determinism anchors. */

#include <gtest/gtest.h>

#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "fabric/config.h"
#include "fabric/fleet.h"
#include "fabric/interconnect.h"
#include "fabric/placement.h"
#include "ssd/ssd.h"
#include "trace/trace.h"
#include "pool_dispatches.h"

namespace rif {
namespace fabric {
namespace {

FleetConfig
makeFleet(int drives, PlacementKind kind = PlacementKind::Striped,
          int replicas = 2)
{
    FleetConfig fc;
    fc.drives = drives;
    fc.placement = kind;
    fc.replicas = replicas;
    fc.stripePages = 4;
    return fc;
}

trace::WorkloadSpec
smallWorkload()
{
    trace::WorkloadSpec spec;
    spec.name = "test";
    spec.readRatio = 0.8;
    spec.coldReadRatio = 0.7;
    spec.footprintPages = 8192;
    return spec;
}

// ---------------------------------------------------------------------
// Placement address math.
// ---------------------------------------------------------------------

TEST(Placement, StripedLocateGlobalOfRoundTrip)
{
    const Placement pl(makeFleet(5));
    for (std::uint64_t gpn = 0; gpn < 4000; ++gpn) {
        const SubIo at = pl.locate(gpn, 0);
        ASSERT_LT(at.drive, 5);
        std::uint32_t replica = 99;
        EXPECT_EQ(pl.globalOf(at.drive, at.lpn, replica), gpn);
        EXPECT_EQ(replica, 0u);
        EXPECT_LT(at.lpn, pl.driveFootprint(4000));
    }
}

TEST(Placement, StripedSingleDriveIsIdentity)
{
    const Placement pl(makeFleet(1));
    for (std::uint64_t gpn : {0ull, 1ull, 7ull, 4095ull}) {
        const SubIo at = pl.locate(gpn, 0);
        EXPECT_EQ(at.drive, 0);
        EXPECT_EQ(at.lpn, gpn);
    }
}

TEST(Placement, ReplicatedLocateGlobalOfRoundTrip)
{
    const Placement pl(makeFleet(5, PlacementKind::Replicated, 3));
    EXPECT_EQ(pl.replicas(), 3u);
    for (std::uint64_t gpn = 0; gpn < 2000; ++gpn) {
        for (std::uint32_t r = 0; r < 3; ++r) {
            const SubIo at = pl.locate(gpn, r);
            ASSERT_LT(at.drive, 5);
            std::uint32_t replica = 99;
            EXPECT_EQ(pl.globalOf(at.drive, at.lpn, replica), gpn);
            EXPECT_EQ(replica, r);
            EXPECT_LT(at.lpn, pl.driveFootprint(2000));
        }
    }
}

TEST(Placement, ReplicasOfAChunkLandOnDistinctDrives)
{
    const Placement pl(makeFleet(4, PlacementKind::Replicated, 2));
    for (std::uint64_t gpn = 0; gpn < 256; ++gpn) {
        const SubIo a = pl.locate(gpn, 0);
        const SubIo b = pl.locate(gpn, 1);
        EXPECT_NE(a.drive, b.drive);
    }
}

TEST(Placement, SplitCoversTheRequestExactly)
{
    const Placement pl(makeFleet(3));
    std::vector<SubIo> frags;
    pl.split(/*lpn=*/6, /*pages=*/23, /*r=*/0, frags);
    std::uint32_t pages = 0;
    for (const SubIo &f : frags) {
        pages += f.pages;
        std::uint32_t replica = 0;
        // Each fragment must map back into [6, 29).
        const std::uint64_t gpn = pl.globalOf(f.drive, f.lpn, replica);
        EXPECT_GE(gpn, 6u);
        EXPECT_LT(gpn + f.pages, 30u);
    }
    EXPECT_EQ(pages, 23u);
}

TEST(Placement, SplitOnOneDriveMergesToSingleFragment)
{
    const Placement pl(makeFleet(1));
    std::vector<SubIo> frags;
    pl.split(10, 100, 0, frags);
    ASSERT_EQ(frags.size(), 1u);
    EXPECT_EQ(frags[0].drive, 0);
    EXPECT_EQ(frags[0].lpn, 10u);
    EXPECT_EQ(frags[0].pages, 100u);
}

TEST(Placement, SplitDoesNotMergeAcrossCalls)
{
    // Two replicas of the same chunk can be contiguous on one drive's
    // local space only within a call; across calls they must stay
    // separate sub-IOs (distinct completions).
    const Placement pl(makeFleet(1, PlacementKind::Replicated, 1));
    std::vector<SubIo> frags;
    pl.split(0, 4, 0, frags);
    pl.split(4, 4, 0, frags);
    EXPECT_EQ(frags.size(), 2u);
}

// ---------------------------------------------------------------------
// Interconnect.
// ---------------------------------------------------------------------

TEST(Interconnect, LinkSerializesFifoAndAddsLatency)
{
    Link link(/*gbps=*/1.0, /*latency=*/1000);
    // 64 B at 1 B/tick serializes in 64 ticks, then propagates.
    EXPECT_EQ(link.deliver(0, 64), 64u + 1000u);
    // Enqueued while the wire is busy: starts at freeAt, not at t.
    EXPECT_EQ(link.deliver(10, 64), 128u + 1000u);
    // After the wire idles, starts at t again.
    EXPECT_EQ(link.deliver(10000, 64), 10064u + 1000u);
    EXPECT_EQ(link.busyTicks(), 192u);
    EXPECT_EQ(link.messages(), 3u);
}

TEST(Interconnect, AggregatesAcrossLinksAndDirections)
{
    Interconnect net(2, 1.0, 500);
    net.ingress(0).deliver(0, 100);
    net.egress(1).deliver(0, 50);
    EXPECT_EQ(net.latency(), 500u);
    EXPECT_EQ(net.busyTicks(), 150u);
    EXPECT_EQ(net.messages(), 2u);
    EXPECT_EQ(net.ingress(1).messages(), 0u);
}

// ---------------------------------------------------------------------
// Per-drive seed forking.
// ---------------------------------------------------------------------

TEST(DriveSeed, IndependentOfFleetSizeAndDistinctPerDrive)
{
    // The seed derivation takes (base, index) only, so growing the
    // fleet must not move any existing drive's streams: the same
    // drive's effective config is identical under N=1 and N=8.
    const ssd::SsdConfig base;
    const Fleet one(base, makeFleet(1));
    const Fleet eight(base, makeFleet(8));
    EXPECT_EQ(one.driveConfig(0).seed, eight.driveConfig(0).seed);

    std::vector<std::uint64_t> seeds;
    for (int d = 0; d < 8; ++d)
        seeds.push_back(eight.driveConfig(d).seed);
    for (std::size_t i = 0; i < seeds.size(); ++i)
        for (std::size_t j = i + 1; j < seeds.size(); ++j)
            EXPECT_NE(seeds[i], seeds[j]);
    EXPECT_NE(driveSeed(1, 0), driveSeed(2, 0));
}

TEST(DriveSeed, AgedDrivesGetTheAgedWearPoint)
{
    ssd::SsdConfig base;
    base.peCycles = 100.0;
    FleetConfig fc = makeFleet(3);
    fc.agedDrives = 1;
    fc.agedPeCycles = 4000.0;
    const Fleet fleet(base, fc);
    EXPECT_DOUBLE_EQ(fleet.driveConfig(0).peCycles, 4000.0);
    EXPECT_DOUBLE_EQ(fleet.driveConfig(1).peCycles, 100.0);
    EXPECT_DOUBLE_EQ(fleet.driveConfig(2).peCycles, 100.0);
}

// ---------------------------------------------------------------------
// Fleet runs.
// ---------------------------------------------------------------------

TEST(FleetConfigDeathTest, EveryFleetNeedsALink)
{
    // The link latency is the lookahead window, so a fleet without one
    // cannot run; a bare Ssd is the linkless single drive.
    FleetConfig fc = makeFleet(1);
    fc.linkUs = 0.0;
    EXPECT_DEATH(fc.validate(), "fleet.linkUs must be > 0");
    fc.linkUs = -1.0;
    EXPECT_DEATH(fc.validate(), "fleet.linkUs must be > 0");
    fc = makeFleet(4);
    fc.linkUs = 0.0;
    EXPECT_DEATH(fc.validate(), "fleet.linkUs must be > 0");
}

TEST(Fleet, CoupledFleetHonorsFleetQd)
{
    // A one-drive fleet behind the default link paces its host at
    // fleet.qd, not at the drive's own ssd.queueDepth: the host queue
    // peaks at exactly fleet.qd, and a qd-8 fleet runs slower than the
    // same fleet at qd = ssd.queueDepth.
    ssd::SsdConfig cfg;
    const trace::WorkloadSpec spec = smallWorkload();
    auto replay = [&](int qd, std::uint64_t &queuePeak) {
        FleetConfig fc = makeFleet(1);
        fc.qd = qd;
        Fleet fleet(cfg, fc);
        trace::SyntheticWorkload src(spec, 600, 7);
        metrics::MetricsScope scope;
        const FleetStats fs = fleet.run(src);
        queuePeak = scope.finish().value("fabric.host.queue_peak");
        EXPECT_EQ(fs.commands, 600u);
        return fs;
    };

    ASSERT_NE(8, cfg.queueDepth);
    std::uint64_t shallowPeak = 0, deepPeak = 0;
    const FleetStats shallow = replay(8, shallowPeak);
    const FleetStats deep = replay(cfg.queueDepth, deepPeak);
    EXPECT_EQ(shallowPeak, 8u);
    EXPECT_EQ(deepPeak, static_cast<std::uint64_t>(cfg.queueDepth));
    EXPECT_GT(shallow.makespan, deep.makespan);
}

/** Run one small fleet replay and return its stats. */
FleetStats
runSmallFleet(const FleetConfig &fc, std::uint64_t requests = 500)
{
    ssd::SsdConfig cfg;
    Fleet fleet(cfg, fc);
    trace::SyntheticWorkload src(smallWorkload(), requests, 11);
    return fleet.run(src);
}

TEST(Fleet, FabricPathCompletesEveryCommand)
{
    const FleetStats fs = runSmallFleet(makeFleet(3));
    EXPECT_EQ(fs.commands, 500u);
    EXPECT_GE(fs.subIos, fs.commands);
    EXPECT_EQ(fs.readLatencyUs.count() + fs.writeLatencyUs.count(),
              fs.commands);
    EXPECT_GT(fs.makespan, 0u);
    EXPECT_GT(fs.syncRounds, 0u);
    ASSERT_EQ(fs.drives.size(), 3u);
    std::uint64_t driveRequests = 0;
    for (const ssd::SsdStats &d : fs.drives)
        driveRequests += d.hostRequests;
    EXPECT_EQ(driveRequests, fs.subIos);
}

TEST(Fleet, ReplicatedWritesFanOutAndReadsComplete)
{
    const FleetStats fs =
        runSmallFleet(makeFleet(4, PlacementKind::Replicated, 2));
    EXPECT_EQ(fs.commands, 500u);
    // Every write chunk lands on two drives.
    EXPECT_GT(fs.subIos, fs.commands);
}

TEST(Fleet, ResultsAreThreadCountInvariant)
{
    // The conservative rounds only synchronize at interconnect
    // crossings; results must not depend on the worker budget.
    setGlobalThreadCount(1);
    const FleetStats serial = runSmallFleet(makeFleet(4), 300);
    setGlobalThreadCount(4);
    const FleetStats threaded = runSmallFleet(makeFleet(4), 300);
    setGlobalThreadCount(0);

    EXPECT_EQ(serial.makespan, threaded.makespan);
    EXPECT_EQ(serial.commands, threaded.commands);
    EXPECT_EQ(serial.subIos, threaded.subIos);
    EXPECT_EQ(serial.syncRounds, threaded.syncRounds);
    EXPECT_EQ(serial.driveEvents, threaded.driveEvents);
    // The round-vehicle counters are pure functions of simulated state,
    // so they must match too (barrierWaitTicks is simulated ticks, not
    // wall time).
    EXPECT_EQ(serial.roundsCoalesced, threaded.roundsCoalesced);
    EXPECT_EQ(serial.barrierWaitTicks, threaded.barrierWaitTicks);
    ASSERT_EQ(serial.readLatencyUs.count(),
              threaded.readLatencyUs.count());
    EXPECT_DOUBLE_EQ(serial.readLatencyUs.percentile(99),
                     threaded.readLatencyUs.percentile(99));
    EXPECT_DOUBLE_EQ(serial.writeLatencyUs.percentile(99),
                     threaded.writeLatencyUs.percentile(99));
    for (std::size_t d = 0; d < serial.drives.size(); ++d) {
        EXPECT_EQ(serial.drives[d].pageReads,
                  threaded.drives[d].pageReads);
        EXPECT_EQ(serial.drives[d].makespan,
                  threaded.drives[d].makespan);
    }
}

using rif_test_pool::poolDispatches;

TEST(Fleet, RoundsIssueNoPoolJobs)
{
    // Rounds run on the calling thread: only preconditioning may reach
    // the pool, so doubling the replay (and its round count) must not
    // add a single dispatch.
    poolDispatches();
    setGlobalThreadCount(4);
    const std::uint64_t before = poolDispatches();
    const FleetStats shortRun = runSmallFleet(makeFleet(4), 300);
    const std::uint64_t mid = poolDispatches();
    const FleetStats longRun = runSmallFleet(makeFleet(4), 600);
    const std::uint64_t after = poolDispatches();
    setGlobalThreadCount(0);

    EXPECT_GT(longRun.syncRounds, shortRun.syncRounds);
    EXPECT_GT(shortRun.syncRounds, shortRun.roundsCoalesced);
    EXPECT_EQ(mid - before, after - mid);
}

TEST(Fleet, SingleDriveRoundsAllCoalesce)
{
    // One drive behind a real link: every round has at most one active
    // drive, so the coalescing counter must account for every round.
    const FleetStats fs = runSmallFleet(makeFleet(1), 300);
    EXPECT_GT(fs.syncRounds, 0u);
    EXPECT_EQ(fs.roundsCoalesced, fs.syncRounds);
}

TEST(Fleet, SkewedLoadTortureStaysThreadCountInvariant)
{
    // Degenerate striping: a stripe wider than the global footprint
    // pins every host command on drive 0 while seven drives idle
    // forever. This is the worst case for the idle-drive skip; results
    // must still be byte-identical at any worker budget.
    FleetConfig fc = makeFleet(8);
    fc.stripePages = 16384; // > smallWorkload().footprintPages

    setGlobalThreadCount(1);
    const FleetStats serial = runSmallFleet(fc, 300);
    setGlobalThreadCount(8);
    const FleetStats threaded = runSmallFleet(fc, 300);
    setGlobalThreadCount(0);

    EXPECT_EQ(serial.makespan, threaded.makespan);
    EXPECT_EQ(serial.syncRounds, threaded.syncRounds);
    EXPECT_EQ(serial.driveEvents, threaded.driveEvents);
    EXPECT_EQ(serial.roundsCoalesced, threaded.roundsCoalesced);
    EXPECT_EQ(serial.barrierWaitTicks, threaded.barrierWaitTicks);
    EXPECT_DOUBLE_EQ(serial.readLatencyUs.percentile(99),
                     threaded.readLatencyUs.percentile(99));

    // All sub-IO really did land on drive 0 and nothing ever forced a
    // multi-drive round, so every round coalesced.
    ASSERT_EQ(threaded.drives.size(), 8u);
    EXPECT_EQ(threaded.drives[0].hostRequests, threaded.subIos);
    for (std::size_t d = 1; d < 8; ++d)
        EXPECT_EQ(threaded.drives[d].hostRequests, 0u);
    EXPECT_EQ(threaded.roundsCoalesced, threaded.syncRounds);
}

} // namespace
} // namespace fabric
} // namespace rif
