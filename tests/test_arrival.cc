/**
 * @file
 * Tests of the pluggable injection policies (ssd/arrival.h): the
 * closed-loop policy must reproduce the historical replay loop
 * byte-for-byte on both replay engines at every thread count, and the
 * open-loop policy must be deterministic, conserve its arrival
 * accounting and shed load only when the bounded host queue is full.
 */

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "fabric/fleet.h"
#include "ssd/arrival.h"
#include "ssd/ssd.h"
#include "trace/arrival.h"
#include "trace/trace.h"
#include "trace/workload.h"

namespace rif {
namespace ssd {
namespace {

class ThreadGuard
{
  public:
    ~ThreadGuard() { setGlobalThreadCount(0); }
};

SsdConfig
smallConfig(PolicyKind p = PolicyKind::Rif)
{
    SsdConfig cfg;
    cfg.geometry.channels = 2;
    cfg.geometry.diesPerChannel = 2;
    cfg.geometry.blocksPerPlane = 64;
    cfg.geometry.pagesPerBlock = 128;
    cfg.policy = p;
    cfg.peCycles = 1000.0;
    cfg.queueDepth = 16;
    return cfg;
}

trace::WorkloadSpec
smallWorkload()
{
    trace::WorkloadSpec spec;
    spec.name = "test";
    spec.readRatio = 0.9;
    spec.coldReadRatio = 0.8;
    spec.footprintPages = 8192;
    return spec;
}

void
expectIdenticalStats(const SsdStats &a, const SsdStats &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.hostRequests, b.hostRequests);
    EXPECT_EQ(a.hostReadBytes, b.hostReadBytes);
    EXPECT_EQ(a.hostWriteBytes, b.hostWriteBytes);
    EXPECT_EQ(a.pageReads, b.pageReads);
    EXPECT_EQ(a.pageWrites, b.pageWrites);
    EXPECT_EQ(a.retriedReads, b.retriedReads);
    EXPECT_EQ(a.readLatencyUs.count(), b.readLatencyUs.count());
    EXPECT_EQ(a.readLatencyUs.percentile(50),
              b.readLatencyUs.percentile(50));
    EXPECT_EQ(a.readLatencyUs.percentile(99),
              b.readLatencyUs.percentile(99));
    EXPECT_EQ(a.writeLatencyUs.percentile(99),
              b.writeLatencyUs.percentile(99));
}

// ---------------------------------------------------------------------
// Closed loop: the policy must be the old hard-coded loop, exactly.
// ---------------------------------------------------------------------

TEST(ClosedLoopArrival, MatchesLegacyReplayAtEveryThreadCount)
{
    ThreadGuard guard;
    const trace::WorkloadSpec spec = smallWorkload();
    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        const SsdConfig cfg = smallConfig();

        trace::SyntheticWorkload legacy_src(spec, 1500, 3);
        Ssd legacy_drive(cfg);
        const SsdStats legacy = legacy_drive.run(legacy_src);

        trace::SyntheticWorkload policy_src(spec, 1500, 3);
        ClosedLoopArrival closed(cfg.queueDepth);
        Ssd policy_drive(cfg);
        const SsdStats viaPolicy = policy_drive.run(policy_src, closed);

        expectIdenticalStats(legacy, viaPolicy);
        EXPECT_FALSE(closed.stats().openLoop);
        EXPECT_EQ(closed.stats().offered, viaPolicy.hostRequests);
        EXPECT_EQ(closed.stats().injected, viaPolicy.hostRequests);
        EXPECT_EQ(closed.stats().dropped, 0u);
        EXPECT_EQ(closed.stats().enqueued, 0u);
    }
}

TEST(ClosedLoopArrival, MatchesLegacyFleetReplay)
{
    ThreadGuard guard;
    const trace::WorkloadSpec spec = smallWorkload();
    for (int threads : {1, 8}) {
        setGlobalThreadCount(threads);
        const SsdConfig cfg = smallConfig();
        fabric::FleetConfig fc;
        fc.drives = 2;
        fc.qd = 32;

        trace::SyntheticWorkload legacy_src(spec, 1200, 5);
        fabric::Fleet legacy_fleet(cfg, fc);
        const fabric::FleetStats legacy = legacy_fleet.run(legacy_src);

        trace::SyntheticWorkload policy_src(spec, 1200, 5);
        ClosedLoopArrival closed(fc.qd);
        fabric::Fleet policy_fleet(cfg, fc);
        const fabric::FleetStats viaPolicy =
            policy_fleet.run(policy_src, closed);

        EXPECT_EQ(legacy.makespan, viaPolicy.makespan);
        EXPECT_EQ(legacy.commands, viaPolicy.commands);
        EXPECT_EQ(legacy.subIos, viaPolicy.subIos);
        EXPECT_EQ(legacy.syncRounds, viaPolicy.syncRounds);
        EXPECT_EQ(legacy.readLatencyUs.percentile(99),
                  viaPolicy.readLatencyUs.percentile(99));
        EXPECT_EQ(closed.stats().offered, viaPolicy.commands);
    }
}

TEST(ClosedLoopArrival, MatchesLegacyCoupledFleetReplay)
{
    // A one-drive fleet behind the default link: run(source) is
    // run(source, ClosedLoopArrival(fleet.qd)) there too.
    const trace::WorkloadSpec spec = smallWorkload();
    const SsdConfig cfg = smallConfig();
    fabric::FleetConfig fc;
    fc.drives = 1;

    trace::SyntheticWorkload legacy_src(spec, 800, 7);
    fabric::Fleet legacy_fleet(cfg, fc);
    const fabric::FleetStats legacy = legacy_fleet.run(legacy_src);

    trace::SyntheticWorkload policy_src(spec, 800, 7);
    ClosedLoopArrival closed(fc.qd);
    fabric::Fleet policy_fleet(cfg, fc);
    const fabric::FleetStats viaPolicy =
        policy_fleet.run(policy_src, closed);

    EXPECT_EQ(legacy.makespan, viaPolicy.makespan);
    EXPECT_EQ(legacy.commands, viaPolicy.commands);
    EXPECT_EQ(legacy.syncRounds, viaPolicy.syncRounds);
    EXPECT_GT(legacy.syncRounds, 0u);
    EXPECT_EQ(legacy.readLatencyUs.percentile(99),
              viaPolicy.readLatencyUs.percentile(99));
    EXPECT_EQ(closed.stats().offered, viaPolicy.commands);
}

// ---------------------------------------------------------------------
// Open loop: determinism, accounting conservation, bounded queue.
// ---------------------------------------------------------------------

SsdStats
runOpenLoop(ArrivalStats &out, double kiops, int queueCap,
            std::uint64_t requests = 1200)
{
    const SsdConfig cfg = smallConfig();
    trace::SyntheticWorkload base(smallWorkload(), requests, 11);
    trace::PoissonArrivals gen(kiops * 1e3, 0x5eed);
    trace::TimedTrace source(base, gen);
    OpenLoopArrival open(queueCap, cfg.queueDepth);
    Ssd drive(cfg);
    const SsdStats st = drive.run(source, open);
    out = open.stats();
    return st;
}

TEST(OpenLoopArrival, DeterministicAtEveryThreadCount)
{
    ThreadGuard guard;
    setGlobalThreadCount(1);
    ArrivalStats ref_arrivals;
    const SsdStats ref = runOpenLoop(ref_arrivals, 150.0, 64);
    for (int threads : {2, 8}) {
        setGlobalThreadCount(threads);
        ArrivalStats arrivals;
        const SsdStats st = runOpenLoop(arrivals, 150.0, 64);
        expectIdenticalStats(ref, st);
        EXPECT_EQ(arrivals.offered, ref_arrivals.offered);
        EXPECT_EQ(arrivals.injected, ref_arrivals.injected);
        EXPECT_EQ(arrivals.enqueued, ref_arrivals.enqueued);
        EXPECT_EQ(arrivals.dropped, ref_arrivals.dropped);
        EXPECT_EQ(arrivals.queuePeak, ref_arrivals.queuePeak);
    }
}

TEST(OpenLoopArrival, ConservesArrivalAccounting)
{
    ArrivalStats arrivals;
    const SsdStats st = runOpenLoop(arrivals, 150.0, 64);
    EXPECT_TRUE(arrivals.openLoop);
    // Every offered record is either eventually injected or dropped;
    // parked arrivals are a subset of the injected ones.
    EXPECT_EQ(arrivals.offered, 1200u);
    EXPECT_EQ(arrivals.offered, arrivals.injected + arrivals.dropped);
    EXPECT_LE(arrivals.enqueued, arrivals.injected);
    EXPECT_LE(arrivals.queuePeak, 64u);
    EXPECT_EQ(st.hostRequests, arrivals.injected);
    // Latency includes host-queue wait: recorded per injected request.
    EXPECT_EQ(st.readLatencyUs.count() + st.writeLatencyUs.count(),
              arrivals.injected);
}

TEST(OpenLoopArrival, ShedsLoadOnlyWhenTheBoundedQueueIsFull)
{
    // Gentle load into a large queue: nothing dropped.
    ArrivalStats gentle;
    runOpenLoop(gentle, 20.0, 1024);
    EXPECT_EQ(gentle.dropped, 0u);

    // Crushing load into a tiny queue: drops, and the queue never
    // grows past its bound.
    ArrivalStats crushed;
    runOpenLoop(crushed, 2000.0, 8);
    EXPECT_GT(crushed.dropped, 0u);
    EXPECT_LE(crushed.queuePeak, 8u);
    EXPECT_EQ(crushed.offered, crushed.injected + crushed.dropped);
}

TEST(OpenLoopArrival, TimestampReplayInjectsAtTheRecordedTicks)
{
    // Three widely spaced arrivals on an otherwise idle device: the
    // makespan is dominated by the last arrival, which a closed loop
    // (same records, timestamps ignored) comes nowhere near.
    const SsdConfig cfg = smallConfig();
    const std::vector<trace::IoRecord> records{
        {true, 10, 1, 0},
        {true, 500, 1, usToTicks(2000.0)},
        {true, 900, 1, usToTicks(4000.0)},
    };

    trace::VectorTrace timed_src(records, 8192, 4096);
    OpenLoopArrival open(16, cfg.queueDepth);
    Ssd timed_drive(cfg);
    const SsdStats timed = timed_drive.run(timed_src, open);
    EXPECT_GE(timed.makespan, usToTicks(4000.0));

    trace::VectorTrace closed_src(records, 8192, 4096);
    Ssd closed_drive(cfg);
    const SsdStats closed = closed_drive.run(closed_src);
    EXPECT_LT(closed.makespan, usToTicks(2000.0));
}

/** Two Poisson-paced tenants on disjoint partitions of one drive, one
 *  open-loop policy with a 4-entry host queue pacing both. 20 kIOPS
 *  per tenant overloads the small drive, so every path runs: direct
 *  injection, host-queue parking and drops. */
SsdStats
runMultiQueueOpenLoop(ArrivalStats &out)
{
    const SsdConfig cfg = smallConfig();
    const trace::WorkloadSpec spec = smallWorkload();
    trace::SyntheticWorkload base0(spec, 600, 21), base1(spec, 600, 22);
    trace::PoissonArrivals gen0(2.0e4, 0x5eed), gen1(2.0e4, 0xfeed);
    trace::TimedTrace timed0(base0, gen0), timed1(base1, gen1);
    trace::OffsetTrace tenant0(timed0, 0);
    trace::OffsetTrace tenant1(timed1, spec.footprintPages);
    OpenLoopArrival open(4, cfg.queueDepth);
    Ssd drive(cfg);
    const SsdStats st = drive.runMultiQueue({&tenant0, &tenant1}, open);
    out = open.stats();
    return st;
}

TEST(OpenLoopArrival, MultiQueueOnOneDriveConservesAndIsDeterministic)
{
    ThreadGuard guard;
    setGlobalThreadCount(1);
    ArrivalStats ref_arrivals;
    const SsdStats ref = runMultiQueueOpenLoop(ref_arrivals);

    EXPECT_EQ(ref_arrivals.offered, 1200u);
    EXPECT_GT(ref_arrivals.dropped, 0u);
    EXPECT_GT(ref_arrivals.enqueued, 0u);
    EXPECT_LE(ref_arrivals.queuePeak, 4u);
    EXPECT_EQ(ref_arrivals.offered,
              ref_arrivals.injected + ref_arrivals.dropped);
    EXPECT_EQ(ref.hostRequests, ref_arrivals.injected);
    EXPECT_EQ(ref.readLatencyUs.count() + ref.writeLatencyUs.count(),
              ref_arrivals.injected);
    ASSERT_EQ(ref.queueReadLatencyUs.size(), 2u);
    EXPECT_GT(ref.queueReadLatencyUs[0].count(), 0u);
    EXPECT_GT(ref.queueReadLatencyUs[1].count(), 0u);
    EXPECT_EQ(ref.queueReadLatencyUs[0].count() +
                  ref.queueReadLatencyUs[1].count(),
              ref.readLatencyUs.count());

    setGlobalThreadCount(8);
    ArrivalStats arrivals;
    const SsdStats st = runMultiQueueOpenLoop(arrivals);
    expectIdenticalStats(ref, st);
    for (std::size_t q = 0; q < 2; ++q) {
        EXPECT_EQ(st.queueReadLatencyUs[q].count(),
                  ref.queueReadLatencyUs[q].count());
        EXPECT_EQ(st.queueReadLatencyUs[q].percentile(99),
                  ref.queueReadLatencyUs[q].percentile(99));
    }
    EXPECT_EQ(arrivals.offered, ref_arrivals.offered);
    EXPECT_EQ(arrivals.injected, ref_arrivals.injected);
    EXPECT_EQ(arrivals.enqueued, ref_arrivals.enqueued);
    EXPECT_EQ(arrivals.dropped, ref_arrivals.dropped);
    EXPECT_EQ(arrivals.queuePeak, ref_arrivals.queuePeak);
}

TEST(OpenLoopArrival, FleetSweepIsDeterministicAndAccounted)
{
    ThreadGuard guard;
    const SsdConfig cfg = smallConfig();
    fabric::FleetConfig fc;
    fc.drives = 2;
    fc.qd = 32;

    auto run = [&](int threads, ArrivalStats &out) {
        setGlobalThreadCount(threads);
        trace::SyntheticWorkload base(smallWorkload(), 1000, 13);
        trace::PoissonArrivals gen(200000.0, 0x5eed);
        trace::TimedTrace source(base, gen);
        OpenLoopArrival open(32, fc.qd);
        fabric::Fleet fleet(cfg, fc);
        const fabric::FleetStats fs = fleet.run(source, open);
        out = open.stats();
        return fs.makespan;
    };

    ArrivalStats a, b;
    const Tick makespan1 = run(1, a);
    const Tick makespan8 = run(8, b);
    EXPECT_EQ(makespan1, makespan8);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.offered, 1000u);
    EXPECT_EQ(a.offered, a.injected + a.dropped);
}

// ---------------------------------------------------------------------
// The factory: workload config -> policy.
// ---------------------------------------------------------------------

TEST(MakeArrivalPolicy, SelectsTheConfiguredPolicy)
{
    trace::WorkloadConfig closed;
    const auto closed_policy = makeArrivalPolicy(closed, 16);
    EXPECT_FALSE(closed_policy->stats().openLoop);

    trace::WorkloadConfig open;
    open.arrival = "poisson";
    open.queueCap = 7;
    const auto open_policy = makeArrivalPolicy(open, 16);
    EXPECT_TRUE(open_policy->stats().openLoop);
}

} // namespace
} // namespace ssd
} // namespace rif
