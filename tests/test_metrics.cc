/** Metrics registry: handles, shard merging, scope nesting, output. */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "json_lint.h"

namespace rif {
namespace metrics {
namespace {

TEST(MetricsRegistry, RegisterIsIdempotentAndBackfills)
{
    const int id = registerMetric("test.registry.idem", Kind::Counter);
    EXPECT_EQ(registerMetric("test.registry.idem", Kind::Counter, "ops",
                             "a counter"),
              id);
    EXPECT_EQ(findMetric("test.registry.idem"), id);
    EXPECT_EQ(metricInfo(id).unit, "ops");
    EXPECT_EQ(metricInfo(id).help, "a counter");
    EXPECT_EQ(findMetric("test.registry.never_registered"), -1);
    EXPECT_GT(schemaSize(), id);
}

TEST(MetricsHandles, BumpsLandInTheActiveScope)
{
    const Counter reads{"test.handles.reads", "ops"};
    const Gauge depth{"test.handles.depth", "reqs"};
    const Distribution lat{"test.handles.latency", "us"};

    MetricsScope scope;
    reads.inc();
    reads.add(9);
    depth.observe(3);
    depth.observe(7);
    depth.observe(5);
    lat.observe(2.5);
    lat.observe(0.5);

    const Snapshot snap = scope.finish();
    EXPECT_EQ(snap.value("test.handles.reads"), 10u);
    EXPECT_EQ(snap.value("test.handles.depth"), 7u);
    ASSERT_EQ(snap.distCount("test.handles.latency"), 2u);
    // Samples are merged as a sorted multiset.
    const SnapshotEntry *e = snap.find("test.handles.latency");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->samples.front(), 0.5);
    EXPECT_EQ(e->samples.back(), 2.5);
}

TEST(MetricsHandles, NoActiveScopeIsANoOp)
{
    const Counter c{"test.handles.orphan", "ops"};
    c.inc(); // must not crash; nothing records it
    MetricsScope scope;
    const Snapshot snap = scope.finish();
    EXPECT_EQ(snap.find("test.handles.orphan"), nullptr);
}

// The nesting, sorting, percentile and determinism tests below drive
// the Collector API directly (the path Ssd::publishMetrics uses).
TEST(MetricsScopeNesting, InnerFoldsIntoOuter)
{
    const int id = registerMetric("test.nesting.count", Kind::Counter);
    MetricsScope outer;
    activeCollector()->add(id, 1);
    {
        MetricsScope inner;
        activeCollector()->add(id, 10);
        const Snapshot in = inner.finish();
        EXPECT_EQ(in.value("test.nesting.count"), 10u);
    }
    activeCollector()->add(id, 100);
    const Snapshot out = outer.finish();
    EXPECT_EQ(out.value("test.nesting.count"), 111u);
}

TEST(MetricsSnapshot, EntriesAreNameSorted)
{
    const int b = registerMetric("test.sorted.b", Kind::Counter);
    const int a = registerMetric("test.sorted.a", Kind::Counter);
    MetricsScope scope;
    activeCollector()->add(b, 1);
    activeCollector()->add(a, 1);
    const Snapshot snap = scope.finish();
    ASSERT_EQ(snap.entries().size(), 2u);
    EXPECT_EQ(snap.entries()[0].name, "test.sorted.a");
    EXPECT_EQ(snap.entries()[1].name, "test.sorted.b");
}

TEST(MetricsSnapshot, PercentilesMatchPercentileTracker)
{
    const int id =
        registerMetric("test.percentiles.samples", Kind::Distribution, "us");
    PercentileTracker ref;
    MetricsScope scope;
    // Deterministic pseudo-random-ish sample set, out of order.
    for (int i = 0; i < 997; ++i) {
        const double v = static_cast<double>((i * 7919) % 997) / 3.0;
        activeCollector()->observe(id, v);
        ref.add(v);
    }
    const Snapshot snap = scope.finish();
    for (double p : {0.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0}) {
        EXPECT_EQ(snap.distPercentile("test.percentiles.samples", p),
                  ref.percentile(p))
            << "p" << p;
    }
    // ref.mean() after percentile() sums in sorted order — the exact
    // call sequence of the Fig. 19 table.
    EXPECT_EQ(snap.distMean("test.percentiles.samples"), ref.mean());
}

/** writeJson must be byte-identical at any pool size. */
std::string
jsonAtThreads(int threads)
{
    ThreadArena arena(threads);
    const int events = registerMetric("test.threads.events", Kind::Counter);
    const int high = registerMetric("test.threads.high", Kind::Gauge);
    const int vals =
        registerMetric("test.threads.vals", Kind::Distribution, "us");
    MetricsScope scope;
    parallelFor(64, [&](std::size_t i) {
        // activeCollector() inside the body also proves the pool
        // propagates the scope to its workers.
        Collector *c = activeCollector();
        ASSERT_NE(c, nullptr);
        c->add(events, i);
        c->gaugeMax(high, i);
        c->observe(vals, static_cast<double>((i * 31) % 64));
    });
    std::ostringstream os;
    scope.finish().writeJson(os);
    return os.str();
}

TEST(MetricsDeterminism, ShardMergeIsThreadCountInvariant)
{
    const std::string at1 = jsonAtThreads(1);
    EXPECT_FALSE(at1.empty());
    EXPECT_TRUE(rif_test_json::validJson(at1));
    EXPECT_EQ(jsonAtThreads(2), at1);
    EXPECT_EQ(jsonAtThreads(8), at1);
}

TEST(MetricsCollector, DirectApiMergesAcrossShards)
{
    const int cid = registerMetric("test.collector.c", Kind::Counter);
    const int gid = registerMetric("test.collector.g", Kind::Gauge);
    Collector col;
    ThreadArena arena(4);
    MetricsScope scope; // installs a scope, but we drive `col` directly
    parallelFor(16, [&](std::size_t i) {
        col.add(cid, 1);
        col.gaugeMax(gid, i);
    });
    const Snapshot snap = col.snapshot();
    EXPECT_EQ(snap.value("test.collector.c"), 16u);
    EXPECT_EQ(snap.value("test.collector.g"), 15u);
}

TEST(MetricsOutput, TableListsEveryEntry)
{
    const int c = registerMetric("test.table.count", Kind::Counter, "ops");
    const int d =
        registerMetric("test.table.dist", Kind::Distribution, "us");
    MetricsScope scope;
    activeCollector()->add(c, 5);
    activeCollector()->observe(d, 1.0);
    activeCollector()->observe(d, 2.0);
    const Snapshot snap = scope.finish();
    const Table t = snap.toTable("registry");
    EXPECT_EQ(t.rows().size(), snap.entries().size());
}

TEST(MetricsBuild, HandlesAreEnabled)
{
    // A handle owns a real schema id.
    const Counter c{"test.build.enabled"};
    EXPECT_GE(c.id(), 0);
}

} // namespace
} // namespace metrics
} // namespace rif
