/**
 * @file
 * Tests of the public experiment facade.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/parallel.h"
#include "core/rif.h"

namespace rif {
namespace {

Experiment
smallExperiment()
{
    Experiment e;
    e.config().geometry.channels = 2;
    e.config().geometry.diesPerChannel = 2;
    e.config().geometry.blocksPerPlane = 64;
    e.config().geometry.pagesPerBlock = 128;
    e.config().queueDepth = 16;
    return e;
}

TEST(Experiment, RunsNamedWorkload)
{
    Experiment e = smallExperiment();
    // Shrink the workload footprint to fit the small geometry.
    e.withPolicy(ssd::PolicyKind::Rif).withPeCycles(1000.0);
    trace::WorkloadSpec spec = trace::workloadByName("Ali124");
    spec.footprintPages = 8192;
    trace::SyntheticWorkload gen(spec, 600, 4);
    const RunResult r = e.run(gen, "Ali124-small");
    EXPECT_EQ(r.workload, "Ali124-small");
    EXPECT_EQ(r.policy, ssd::PolicyKind::Rif);
    EXPECT_DOUBLE_EQ(r.peCycles, 1000.0);
    EXPECT_GT(r.bandwidthMBps(), 0.0);
}

TEST(Experiment, ConfigChaining)
{
    Experiment e;
    e.withPolicy(ssd::PolicyKind::Sentinel).withPeCycles(2000.0);
    EXPECT_EQ(e.config().policy, ssd::PolicyKind::Sentinel);
    EXPECT_DOUBLE_EQ(e.config().peCycles, 2000.0);
}

TEST(Experiment, MultiTenantRunPartitionsTenants)
{
    // Two tenants on one drive, each a host queue on its own LBA
    // partition, as examples/multi_tenant_qos runs them.
    Experiment e = smallExperiment();
    e.withPolicy(ssd::PolicyKind::Rif).withPeCycles(1000.0);
    trace::WorkloadSpec a;
    a.name = "reader";
    a.readRatio = 1.0;
    a.coldReadRatio = 0.8;
    a.footprintPages = 4096;
    trace::WorkloadSpec b = a;
    b.name = "writer";
    b.readRatio = 0.2;
    trace::SyntheticWorkload reader(a, 400, 99);
    trace::SyntheticWorkload writer_gen(b, 400, 100);
    trace::OffsetTrace writer(writer_gen, a.footprintPages);
    ssd::Ssd drive(e.config());
    const ssd::SsdStats st = drive.runMultiQueue({&reader, &writer});
    EXPECT_EQ(st.hostRequests, 800u);
    ASSERT_EQ(st.queueReadLatencyUs.size(), 2u);
    EXPECT_EQ(st.queueReadLatencyUs[0].count(), 400u);
    EXPECT_GT(st.ioBandwidthMBps(), 0.0);
}

/** Restores the default pool (and RIF_THREADS state) on scope exit. */
struct PoolGuard
{
    ~PoolGuard()
    {
        unsetenv("RIF_THREADS");
        setGlobalThreadCount(0);
    }
};

TEST(ParallelRuns, Fig17StyleSweepIsBitIdenticalAcrossThreadCounts)
{
    // A miniature of the threaded figure sweeps: a (policy x P/E)
    // cube where each job builds its own Experiment and trace. The
    // whole result set must be bit-identical for any RIF_THREADS.
    PoolGuard guard;
    struct Point
    {
        ssd::PolicyKind policy;
        double pe;
    };
    std::vector<Point> points;
    for (ssd::PolicyKind p :
         {ssd::PolicyKind::Zero, ssd::PolicyKind::Sentinel,
          ssd::PolicyKind::Rif})
        for (double pe : {500.0, 2000.0})
            points.push_back({p, pe});

    auto sweep = [&points] {
        return parallelRuns(points.size(), [&points](std::size_t i) {
            Experiment e = smallExperiment();
            e.withPolicy(points[i].policy).withPeCycles(points[i].pe);
            trace::WorkloadSpec spec = trace::workloadByName("Ali124");
            spec.footprintPages = 8192;
            trace::SyntheticWorkload gen(spec, 300, 7);
            return e.run(gen, "sweep");
        });
    };

    setGlobalThreadCount(1);
    const auto base = sweep();
    ASSERT_EQ(base.size(), points.size());
    for (int threads : {2, 8}) {
        setGlobalThreadCount(threads);
        const auto got = sweep();
        ASSERT_EQ(got.size(), base.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
            EXPECT_EQ(got[i].stats.makespan, base[i].stats.makespan)
                << "threads=" << threads << " i=" << i;
            EXPECT_EQ(got[i].stats.hostReadBytes,
                      base[i].stats.hostReadBytes)
                << "threads=" << threads << " i=" << i;
            EXPECT_EQ(got[i].stats.retriedReads,
                      base[i].stats.retriedReads)
                << "threads=" << threads << " i=" << i;
            EXPECT_EQ(got[i].stats.hostRequests,
                      base[i].stats.hostRequests)
                << "threads=" << threads << " i=" << i;
        }
    }
}

} // namespace
} // namespace rif
