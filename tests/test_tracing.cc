/** Trace recorder: budgets/drops, JSON output, determinism. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/tracing.h"
#include "json_lint.h"

namespace rif {
namespace tracing {
namespace {

TEST(Tracing, NoActiveRecorderIsANoOp)
{
    EXPECT_EQ(activeRecorder(), nullptr);
    complete("orphan.span", 0, 10); // must not crash
    instant("orphan.instant", 5);
}

TEST(Tracing, RecordsSpansAndInstants)
{
    TraceScope trace;
    complete("host.read", 100, 50, 0, "bytes", 4096);
    instant("nand.read_retry", 120, 1, "lpn", 7);
    EXPECT_EQ(trace.eventCount(), 2u);
    EXPECT_EQ(trace.dropped(), 0u);

    std::ostringstream os;
    trace.writeChromeJson(os);
    const std::string json = os.str();
    EXPECT_TRUE(rif_test_json::validJson(json)) << json;
    EXPECT_NE(json.find("host.read"), std::string::npos);
    EXPECT_NE(json.find("nand.read_retry"), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST(Tracing, TimestampsAreSimulatedMicroseconds)
{
    TraceScope trace;
    // 1500 ns -> 1.5 us; 250 ns duration -> 0.25 us.
    complete("span", 1500, 250);
    std::ostringstream os;
    trace.writeChromeJson(os);
    EXPECT_NE(os.str().find("\"ts\": 1.500"), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("\"dur\": 0.250"), std::string::npos);
}

TEST(Tracing, PerTrackBudgetDropsAndCounts)
{
    TraceScope trace(8);
    for (int i = 0; i < 20; ++i)
        instant("flood", static_cast<Tick>(i));
    EXPECT_EQ(trace.eventCount(), 8u);
    EXPECT_EQ(trace.dropped(), 12u);

    // The drop total is reported in both output footers.
    std::ostringstream chrome, jsonl;
    trace.writeChromeJson(chrome);
    trace.writeJsonl(jsonl);
    EXPECT_NE(chrome.str().find("\"dropped\": \"12\""),
              std::string::npos)
        << chrome.str();
    EXPECT_NE(jsonl.str().find("\"dropped\": 12"), std::string::npos)
        << jsonl.str();
}

TEST(Tracing, BudgetIsPerTrack)
{
    TraceScope trace(4);
    for (std::uint32_t t = 0; t < 3; ++t) {
        TrackScope track(t);
        for (int i = 0; i < 10; ++i)
            instant("per.track", static_cast<Tick>(i));
    }
    EXPECT_EQ(trace.eventCount(), 12u); // 3 tracks x 4 kept
    EXPECT_EQ(trace.dropped(), 18u);
}

TEST(Tracing, JsonlLinesAreEachValidJson)
{
    TraceScope trace;
    setTrackLabel(0, "unit test");
    complete("a", 10, 5);
    instant("b", 12);
    std::ostringstream os;
    trace.writeJsonl(os);

    std::istringstream in(os.str());
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        EXPECT_TRUE(rif_test_json::validJson(line)) << line;
        ++lines;
    }
    EXPECT_GE(lines, 3); // label + 2 events + meta
    EXPECT_NE(os.str().find("\"meta\""), std::string::npos);
}

TEST(Tracing, TrackScopeRestoresThePreviousTrack)
{
    EXPECT_EQ(currentTrack(), 0u);
    {
        TrackScope a(3);
        EXPECT_EQ(currentTrack(), 3u);
        {
            TrackScope b(5);
            EXPECT_EQ(currentTrack(), 5u);
        }
        EXPECT_EQ(currentTrack(), 3u);
    }
    EXPECT_EQ(currentTrack(), 0u);
}

/** The emitted bytes must not depend on the pool size. */
std::string
chromeJsonAtThreads(int threads)
{
    setGlobalThreadCount(threads);
    TraceScope trace;
    parallelFor(16, [&](std::size_t i) {
        // One track per index, written deterministically by whichever
        // worker runs it — the same decomposition parallelRuns uses.
        TrackScope track(static_cast<std::uint32_t>(i));
        const Tick base = static_cast<Tick>(i) * 1000;
        complete("run", base, 500, 0, "idx",
                 static_cast<std::int64_t>(i));
        instant("mark", base + 100, 1);
    });
    std::ostringstream os;
    trace.writeChromeJson(os);
    setGlobalThreadCount(0);
    return os.str();
}

TEST(TracingDeterminism, ThreadCountDoesNotChangeBytes)
{
    const std::string at1 = chromeJsonAtThreads(1);
    EXPECT_TRUE(rif_test_json::validJson(at1));
    EXPECT_EQ(chromeJsonAtThreads(2), at1);
    EXPECT_EQ(chromeJsonAtThreads(8), at1);
}

} // namespace
} // namespace tracing
} // namespace rif
