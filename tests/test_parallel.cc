/**
 * @file
 * Tests for the parallel harness: pool mechanics (full coverage, worker
 * ids, exception propagation, nested jobs joining the team, park/wake,
 * concurrent callers, teardown), the RIF_THREADS override, and the
 * bit-identical-at-any-thread-count guarantee of every parallelized
 * Monte-Carlo sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ldpc/capability.h"
#include "ldpc/code.h"
#include "ldpc/decoder.h"
#include "nand/characterization.h"
#include "odear/accuracy.h"
#include "odear/rp_module.h"
#include "pool_dispatches.h"

namespace rif {
namespace {

/** Restores the default pool (and RIF_THREADS state) on scope exit. */
struct PoolGuard
{
    ~PoolGuard()
    {
        unsetenv("RIF_THREADS");
        setGlobalThreadCount(0);
    }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    PoolGuard guard;
    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        const std::size_t n = 10007;
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        parallelFor(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads
                                         << " i=" << i;
    }
}

TEST(ParallelFor, ZeroAndOneElementRanges)
{
    PoolGuard guard;
    setGlobalThreadCount(4);
    int calls = 0;
    parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, WorkerIdsAreInRange)
{
    PoolGuard guard;
    setGlobalThreadCount(4);
    const int threads = globalThreadCount();
    std::atomic<bool> ok{true};
    parallelForWorker(5000, [&](std::size_t, int worker) {
        if (worker < 0 || worker >= threads)
            ok.store(false);
    });
    EXPECT_TRUE(ok.load());
}

TEST(ParallelFor, ExceptionPropagatesToCaller)
{
    PoolGuard guard;
    setGlobalThreadCount(4);
    EXPECT_THROW(parallelFor(1000,
                             [&](std::size_t i) {
                                 if (i == 137)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // The pool must still be usable after an exception drained.
    std::atomic<int> count{0};
    parallelFor(100, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, NestedCallsJoinTheTeam)
{
    PoolGuard guard;
    setGlobalThreadCount(4);
    std::atomic<int> total{0};
    parallelFor(16, [&](std::size_t) {
        parallelFor(16, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 256);
}

TEST(ParallelFor, NestedJobRunsOnMoreThanOneThread)
{
    // Outer index 0 publishes an inner job of four indices that
    // rendezvous: they all meet only if all four team threads are
    // inside the nested job at once, whichever of them ran index 1.
    // Four threads in one job at once must also hold four distinct
    // worker ids, or per-worker scratch would race.
    PoolGuard guard;
    setGlobalThreadCount(4);
    std::atomic<std::size_t> arrived{0};
    std::atomic<bool> allMet{true};
    std::vector<int> ids(4, -1);
    parallelFor(2, [&](std::size_t o) {
        if (o != 0)
            return;
        parallelForWorker(4, [&](std::size_t i, int worker) {
            ids[i] = worker;
            arrived.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (arrived.load() < 4) {
                if (std::chrono::steady_clock::now() > deadline) {
                    allMet = false;
                    return;
                }
                std::this_thread::yield();
            }
        });
    });
    ASSERT_TRUE(allMet.load());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ParallelFor, NestedExceptionReachesItsOwnCaller)
{
    PoolGuard guard;
    setGlobalThreadCount(4);
    std::atomic<int> caught{0};
    std::atomic<int> inner{0};
    parallelFor(8, [&](std::size_t o) {
        try {
            parallelFor(100, [&](std::size_t i) {
                inner.fetch_add(1, std::memory_order_relaxed);
                if (o == 3 && i == 37)
                    throw std::runtime_error("inner boom");
            });
        } catch (const std::runtime_error &) {
            caught.fetch_add(1);
        }
    });
    // Only the outer index whose inner job threw sees the exception;
    // the outer job itself completes without one.
    EXPECT_EQ(caught.load(), 1);
    EXPECT_GE(inner.load(), 700);
    // The team survives: a nested exception left uncaught still
    // reaches the outermost caller, and the next job runs in full.
    EXPECT_THROW(parallelFor(8,
                             [&](std::size_t o) {
                                 parallelFor(8, [&](std::size_t i) {
                                     if (o == 5 && i == 2)
                                         throw std::runtime_error("boom");
                                 });
                             }),
                 std::runtime_error);
    std::atomic<int> count{0};
    parallelFor(64, [&](std::size_t) {
        parallelFor(4, [&](std::size_t) { count.fetch_add(1); });
    });
    EXPECT_EQ(count.load(), 256);
}

TEST(ParallelFor, BackToBackCallsCoverEveryIndexExactlyOnce)
{
    // Hundreds of small jobs in a row: each one is published while
    // members may still be counting themselves out of the previous one.
    PoolGuard guard;
    setGlobalThreadCount(4);
    constexpr std::size_t kN = 8;
    constexpr int kCalls = 500;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &h : hits)
        h = 0;
    for (int c = 0; c < kCalls; ++c)
        parallelFor(kN, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), kCalls);
}

TEST(ParallelFor, SkewedPerIndexWorkStaysCorrect)
{
    // Wildly unequal per-index work (the fleet's skewed-drive shape):
    // index 0 heavy, others trivial, plus calls where most indices do
    // nothing at all. Totals must still come out exact.
    PoolGuard guard;
    setGlobalThreadCount(4);
    std::vector<std::uint64_t> sums(4, 0);
    for (int r = 0; r < 200; ++r)
        parallelFor(sums.size(), [&](std::size_t i) {
            std::uint64_t acc = 0;
            const int iters = i == 0 ? 2000 : (r % 3 == 0 ? 50 : 0);
            for (int k = 0; k < iters; ++k)
                acc += static_cast<std::uint64_t>(k) * 2654435761u;
            // Per-index slot: no synchronization needed, like the
            // fleet's per-drive completion buffers.
            sums[i] += acc + 1;
        });
    for (const std::uint64_t s : sums)
        EXPECT_GE(s, 200u);
    EXPECT_EQ(sums[1], sums[2]);
    EXPECT_EQ(sums[1], sums[3]);
}

TEST(ParallelFor, MembersParkedBetweenCallsAreWoken)
{
    // Sleeping between calls leaves every member parked on the
    // condition variable. Each call's four indices then rendezvous, so
    // the call completes only if all three parked members were woken.
    PoolGuard guard;
    setGlobalThreadCount(4);
    constexpr std::size_t kN = 4;
    for (int c = 0; c < 5; ++c) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        std::atomic<std::size_t> arrived{0};
        std::atomic<bool> allMet{true};
        parallelFor(kN, [&](std::size_t) {
            arrived.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (arrived.load() < kN) {
                if (std::chrono::steady_clock::now() > deadline) {
                    allMet = false;
                    return;
                }
                std::this_thread::yield();
            }
        });
        EXPECT_TRUE(allMet.load()) << "call " << c;
    }
}

TEST(ParallelFor, ConcurrentCallersShareTheTeam)
{
    // Two threads outside the team publish jobs at once; each call
    // must still run its every index exactly once (and must not
    // deadlock — ctest bounds this executable with a timeout).
    PoolGuard guard;
    setGlobalThreadCount(4);
    std::atomic<int> badCalls{0};
    const auto caller = [&] {
        for (int c = 0; c < 2000; ++c) {
            std::atomic<int> count{0};
            parallelFor(64, [&](std::size_t) {
                count.fetch_add(1, std::memory_order_relaxed);
            });
            if (count.load() != 64)
                badCalls.fetch_add(1);
        }
    };
    std::thread a(caller);
    std::thread b(caller);
    a.join();
    b.join();
    EXPECT_EQ(badCalls.load(), 0);

    // Both callers' jobs are open at once: each job's indices wait for
    // the other job to start, so the calls complete only if the team
    // does not run them one at a time.
    std::atomic<int> started{0};
    std::atomic<bool> allMet{true};
    const auto overlapping = [&] {
        parallelFor(2, [&](std::size_t i) {
            if (i != 0)
                return;
            started.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (started.load() < 2) {
                if (std::chrono::steady_clock::now() > deadline) {
                    allMet = false;
                    return;
                }
                std::this_thread::yield();
            }
        });
    };
    std::thread c(overlapping);
    std::thread d(overlapping);
    c.join();
    d.join();
    EXPECT_TRUE(allMet.load());
}

TEST(ParallelConfig, TeardownWithAndWithoutJobs)
{
    // Shutdown must reach members that never saw a job as well as
    // members that just finished one; a lost wake hangs the join (ctest
    // bounds this executable with a timeout).
    PoolGuard guard;
    for (int r = 0; r < 200; ++r) {
        // The first team is torn down before it sees a job; the second
        // right after a job with nested ones.
        setGlobalThreadCount(4);
        setGlobalThreadCount(4);
        std::atomic<int> count{0};
        parallelFor(64, [&](std::size_t) {
            parallelFor(2, [&](std::size_t) { count.fetch_add(1); });
        });
        ASSERT_EQ(count.load(), 128) << "round " << r;
        setGlobalThreadCount(0);
    }
}

TEST(ParallelConfig, SetGlobalThreadCountOverrides)
{
    PoolGuard guard;
    setGlobalThreadCount(3);
    EXPECT_EQ(globalThreadCount(), 3);
    setGlobalThreadCount(1);
    EXPECT_EQ(globalThreadCount(), 1);
    // A one-member team runs every index inline on the caller.
    const std::thread::id self = std::this_thread::get_id();
    int hits = 0;
    parallelForWorker(100, [&](std::size_t, int worker) {
        EXPECT_EQ(worker, 0);
        EXPECT_EQ(std::this_thread::get_id(), self);
        ++hits;
    });
    EXPECT_EQ(hits, 100);
}

TEST(ParallelConfig, RifThreadsEnvIsHonored)
{
    PoolGuard guard;
    setenv("RIF_THREADS", "5", 1);
    setGlobalThreadCount(0); // reset -> re-reads the environment
    EXPECT_EQ(globalThreadCount(), 5);
    setenv("RIF_THREADS", "junk", 1);
    setGlobalThreadCount(0);
    const int hardware = globalThreadCount(); // hardware default
    EXPECT_GE(hardware, 1);
    // Only plain decimal digits count: trailing garbage, a sign, a
    // blank or hex is invalid as a whole, never read as a prefix (two
    // prefixes, so one of them differs from the hardware count).
    for (const char *junk : {"2x", "3threads", "+2", "+3", " 2", " 3",
                             "2 ", "0x3"}) {
        setenv("RIF_THREADS", junk, 1);
        setGlobalThreadCount(0);
        EXPECT_EQ(globalThreadCount(), hardware) << junk;
    }
    // Oversized values clamp to the maximum budget.
    setenv("RIF_THREADS", "300", 1);
    setGlobalThreadCount(0);
    EXPECT_EQ(globalThreadCount(), 256);
}

TEST(ForkStreams, DeterministicAndIndependent)
{
    auto a = forkStreams(42, 8);
    auto b = forkStreams(42, 8);
    ASSERT_EQ(a.size(), 8u);
    for (std::size_t i = 0; i < a.size(); ++i)
        for (int k = 0; k < 16; ++k)
            ASSERT_EQ(a[i].next(), b[i].next()) << "stream " << i;
    // Distinct streams diverge.
    auto c = forkStreams(42, 2);
    int same = 0;
    for (int k = 0; k < 100; ++k)
        same += (c[0].next() == c[1].next());
    EXPECT_LT(same, 3);
}

/** Fixture providing a small code shared by the determinism sweeps. */
class Determinism : public ::testing::Test
{
  protected:
    Determinism()
        : code_(ldpc::testCode()), decoder_(code_, 12)
    {
    }

    ldpc::QcLdpcCode code_;
    ldpc::MinSumDecoder decoder_;
};

TEST_F(Determinism, RpAccuracySweepIsThreadCountInvariant)
{
    PoolGuard guard;
    odear::RpConfig rp_cfg;
    rp_cfg.rhoS = 40;
    const odear::RpModule rp(code_, rp_cfg);
    odear::AccuracySweepConfig cfg;
    cfg.rbers = {0.005, 0.02};
    cfg.trials = 10;

    std::vector<std::vector<odear::AccuracyPoint>> runs;
    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        runs.push_back(measureRpAccuracy(code_, rp, decoder_, cfg));
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i) {
            EXPECT_EQ(runs[r][i].accuracy, runs[0][i].accuracy);
            EXPECT_EQ(runs[r][i].falseRetryRate, runs[0][i].falseRetryRate);
            EXPECT_EQ(runs[r][i].missRate, runs[0][i].missRate);
            EXPECT_EQ(runs[r][i].decodeFailureRate,
                      runs[0][i].decodeFailureRate);
        }
    }
}

TEST_F(Determinism, CalibrateThresholdIsThreadCountInvariant)
{
    PoolGuard guard;
    odear::RpConfig rp_cfg;
    std::vector<std::size_t> results;
    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        results.push_back(odear::RpModule::calibrateThreshold(
            code_, rp_cfg, 0.008, 16, 99));
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[0], results[2]);
}

/** The `ldpc.batch.*` and `ldpc.decode.*` entries of a snapshot. */
std::vector<std::pair<std::string, std::vector<double>>>
ldpcTotals(const metrics::Snapshot &snap)
{
    std::vector<std::pair<std::string, std::vector<double>>> out;
    for (const metrics::SnapshotEntry &e : snap.entries()) {
        if (e.name.rfind("ldpc.batch.", 0) != 0 &&
            e.name.rfind("ldpc.decode.", 0) != 0)
            continue;
        std::vector<double> v = e.samples;
        v.push_back(static_cast<double>(e.value));
        out.emplace_back(e.name, std::move(v));
    }
    return out;
}

TEST_F(Determinism, CapabilitySweepIsThreadCountInvariant)
{
    PoolGuard guard;
    ldpc::CapabilitySweepConfig cfg;
    cfg.rbers = {0.004, 0.01, 0.015};
    cfg.trials = 10; // two chunks per point, the second a 2-lane tail

    std::vector<std::vector<ldpc::CapabilityPoint>> runs;
    std::vector<metrics::Snapshot> snaps;
    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        metrics::MetricsScope scope;
        runs.push_back(measureCapability(code_, decoder_, cfg));
        snaps.push_back(scope.finish());
    }
    EXPECT_EQ(snaps[0].value("ldpc.batch.flush_reason.full"), 3u);
    EXPECT_EQ(snaps[0].value("ldpc.batch.flush_reason.tail"), 3u);
    EXPECT_EQ(snaps[0].value("ldpc.decode.attempts"), 30u);
    for (std::size_t r = 1; r < runs.size(); ++r) {
        EXPECT_EQ(ldpcTotals(snaps[r]), ldpcTotals(snaps[0]));
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i) {
            EXPECT_EQ(runs[r][i].failureProbability,
                      runs[0][i].failureProbability);
            EXPECT_EQ(runs[r][i].avgIterations, runs[0][i].avgIterations);
            EXPECT_EQ(runs[r][i].avgSyndromeWeight,
                      runs[0][i].avgSyndromeWeight);
            EXPECT_EQ(runs[r][i].avgPrunedSyndromeWeight,
                      runs[0][i].avgPrunedSyndromeWeight);
        }
    }
}

TEST_F(Determinism, SweepsPublishOnePoolJobPerCall)
{
    // The capability and RP-accuracy sweeps run every (point, chunk)
    // pair in one region, so adding RBER points adds no pool job.
    PoolGuard guard;
    rif_test_pool::poolDispatches();
    setGlobalThreadCount(4);
    odear::RpConfig rp_cfg;
    rp_cfg.rhoS = 40;
    const odear::RpModule rp(code_, rp_cfg);
    for (std::size_t points : {1, 3}) {
        ldpc::CapabilitySweepConfig cap;
        cap.rbers.assign(points, 0.01);
        cap.trials = 16; // two chunks, so even one point reaches the pool
        odear::AccuracySweepConfig acc;
        acc.rbers = cap.rbers;
        acc.trials = 16;

        const std::uint64_t before = rif_test_pool::poolDispatches();
        measureCapability(code_, decoder_, cap);
        const std::uint64_t mid = rif_test_pool::poolDispatches();
        measureRpAccuracy(code_, rp, decoder_, acc);
        const std::uint64_t after = rif_test_pool::poolDispatches();
        EXPECT_EQ(mid - before, 1u) << points << " points";
        EXPECT_EQ(after - mid, 1u) << points << " points";
    }
}

TEST_F(Determinism, ChunkSimilarityIsThreadCountInvariant)
{
    PoolGuard guard;
    std::vector<nand::ChunkSimilarity> runs;
    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        Rng rng(7);
        runs.push_back(nand::measureChunkSimilarity(
            0.008, 16384, 4096, 20, 0.05, rng));
    }
    EXPECT_EQ(runs[0].meanSpread, runs[1].meanSpread);
    EXPECT_EQ(runs[0].meanSpread, runs[2].meanSpread);
    EXPECT_EQ(runs[0].maxSpread, runs[1].maxSpread);
    EXPECT_EQ(runs[0].maxSpread, runs[2].maxSpread);
}

} // namespace
} // namespace rif
