/**
 * @file
 * Google-benchmark microbenchmarks of the fleet round machinery: full
 * fleet replays (BM_FleetRound; one drive behind a real link is the
 * all-coalesced baseline), and the cross-page staged RP syndrome
 * datapath against the per-page scalar baseline (BM_RpSyndromeStaged /
 * BM_RpSyndromeScalar).
 *
 * The binary also carries the zero-allocation audit for the steady
 * fleet round loop: global operator new/delete are counted, and main()
 * replays the same fleet at two record counts before running the
 * benchmarks. A round loop that allocates per round (or per record)
 * would scale the allocation count with the replay length; the audit
 * demands the growth stays within amortized container doubling.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/parallel.h"
#include "fabric/config.h"
#include "fabric/fleet.h"
#include "ldpc/channel.h"
#include "ldpc/code.h"
#include "odear/rearrange.h"
#include "odear/rp_module.h"
#include "ssd/config.h"
#include "trace/trace.h"

namespace {

std::atomic<std::uint64_t> gAllocs{0};

} // namespace

// Counting overrides for the allocation audit. Deliberately minimal:
// every allocation in the process (any thread, any library) bumps the
// counter, which is exactly what the steady-state audit wants to see.
void *
operator new(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The allocation audit replaces the global operator new with malloc, so
// these deletes must free(). GCC pairs each `new` call it sees with the
// inlined body below without knowing that, and flags the free() as
// -Wmismatched-new-delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace {

using namespace rif;

trace::WorkloadSpec
benchWorkload()
{
    trace::WorkloadSpec spec;
    spec.name = "micro_fleet";
    spec.readRatio = 0.8;
    spec.coldReadRatio = 0.7;
    spec.footprintPages = 8192;
    return spec;
}

fabric::FleetConfig
benchFleet(int drives)
{
    fabric::FleetConfig fc;
    fc.drives = drives;
    fc.stripePages = 4;
    return fc;
}

/** One full replay; returns (stats, allocations during run()). */
fabric::FleetStats
replayFleet(int drives, std::uint64_t requests, std::uint64_t *allocs)
{
    ssd::SsdConfig cfg;
    fabric::Fleet fleet(cfg, benchFleet(drives));
    trace::SyntheticWorkload src(benchWorkload(), requests, 11);
    const std::uint64_t before = gAllocs.load(std::memory_order_relaxed);
    const fabric::FleetStats fs = fleet.run(src);
    if (allocs)
        *allocs = gAllocs.load(std::memory_order_relaxed) - before;
    return fs;
}

/**
 * Zero-allocation audit of the steady fleet round loop. The same fleet
 * replays the same workload at one thread budget, once with N records
 * and once with 2N, after a warm-up replay that fills the FTL snapshot
 * cache and builds the worker pool. Both measured replays share their
 * set-up, so the allocation-count delta is what the longer replay's
 * extra records and rounds allocate. Growth to new peaks (latency
 * trackers, op pools, queues) is amortized doubling, a few dozen
 * allocations; an allocation per round (a heap-stored job, a closure
 * too large for its inline storage) or per record would add at least
 * one per extra round. The tolerance is a quarter of the extra rounds.
 */
bool
runAllocationAudit()
{
    constexpr std::uint64_t kRequests = 1200;
    setGlobalThreadCount(4);
    replayFleet(4, kRequests, nullptr);
    std::uint64_t shortAllocs = 0;
    const fabric::FleetStats shortRun =
        replayFleet(4, kRequests, &shortAllocs);
    std::uint64_t longAllocs = 0;
    const fabric::FleetStats longRun =
        replayFleet(4, 2 * kRequests, &longAllocs);
    setGlobalThreadCount(0);
    const std::uint64_t delta =
        longAllocs > shortAllocs ? longAllocs - shortAllocs : 0;
    const std::uint64_t extraRounds =
        longRun.syncRounds > shortRun.syncRounds
            ? longRun.syncRounds - shortRun.syncRounds
            : 0;
    const std::uint64_t tolerance = extraRounds / 4;
    // A longer replay that ran no more rounds would measure nothing.
    const bool ok = extraRounds > 0 && delta <= tolerance;
    std::printf("fleet_round_alloc_audit: rounds=%llu/%llu short=%llu "
                "long=%llu delta=%llu tolerance=%llu %s\n",
                static_cast<unsigned long long>(shortRun.syncRounds),
                static_cast<unsigned long long>(longRun.syncRounds),
                static_cast<unsigned long long>(shortAllocs),
                static_cast<unsigned long long>(longAllocs),
                static_cast<unsigned long long>(delta),
                static_cast<unsigned long long>(tolerance),
                ok ? "PASS" : "FAIL");
    return ok;
}

/**
 * Full fleet replay of range(0) drives. Items processed = host
 * commands, so items/s is simulated host IOPS throughput of the
 * harness. Arg(1) is one drive behind a real link, where every round
 * coalesces.
 */
void
BM_FleetRound(benchmark::State &state)
{
    const int drives = static_cast<int>(state.range(0));
    constexpr std::uint64_t kRequests = 1500;
    std::uint64_t rounds = 0, coalesced = 0;
    for (auto _ : state) {
        const fabric::FleetStats fs =
            replayFleet(drives, kRequests, nullptr);
        rounds = fs.syncRounds;
        coalesced = fs.roundsCoalesced;
        benchmark::DoNotOptimize(rounds);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kRequests));
    state.counters["sync_rounds"] = static_cast<double>(rounds);
    state.counters["coalesced"] = static_cast<double>(coalesced);
}
BENCHMARK(BM_FleetRound)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/** Shared fixture for the RP syndrome benches: noisy flash-layout
 *  codewords, reused across iterations. */
struct RpFixture
{
    RpFixture() : code(params()), rp(code, odear::RpConfig{})
    {
        const odear::CodewordRearranger &rr = rp.rearranger();
        Rng rng(3);
        words.reserve(kWords);
        for (int i = 0; i < kWords; ++i) {
            BitVec w = code.encode(ldpc::randomData(code.params().k(), rng));
            ldpc::injectErrors(w, 0.004 + 0.002 * (i % 3), rng);
            words.push_back(rr.toFlashLayout(w));
        }
    }

    static ldpc::CodeParams params()
    {
        ldpc::CodeParams p;
        p.circulant = 64;
        return p;
    }

    static constexpr int kWords = 256;
    ldpc::QcLdpcCode code;
    odear::RpModule rp;
    std::vector<BitVec> words;
};

RpFixture &
rpFixture()
{
    static RpFixture fx;
    return fx;
}

/**
 * Cross-page staged RP syndrome: groups of range(0) concurrently
 * in-flight codewords staged into an RpSyndromeStager and flushed
 * through the 8-lane batch kernels (scalar tail below 8).
 */
void
BM_RpSyndromeStaged(benchmark::State &state)
{
    RpFixture &fx = rpFixture();
    const auto group = static_cast<std::size_t>(state.range(0));
    odear::RpSyndromeStager stage(fx.rp);
    std::uint64_t retries = 0;
    for (auto _ : state) {
        std::size_t i = 0;
        while (i < fx.words.size()) {
            stage.reset();
            const std::size_t lanes =
                std::min(group, fx.words.size() - i);
            for (std::size_t l = 0; l < lanes; ++l)
                (void)stage.stage(fx.words[i + l]);
            stage.flush();
            for (std::size_t l = 0; l < lanes; ++l)
                retries += stage.retry(l) ? 1 : 0;
            i += lanes;
        }
        benchmark::DoNotOptimize(retries);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * fx.words.size()));
}
BENCHMARK(BM_RpSyndromeStaged)->Arg(1)->Arg(3)->Arg(8)->Arg(64);

/** The per-page scalar baseline the staging buffer replaces. */
void
BM_RpSyndromeScalar(benchmark::State &state)
{
    RpFixture &fx = rpFixture();
    std::uint64_t retries = 0;
    for (auto _ : state) {
        for (const BitVec &w : fx.words)
            retries += fx.rp.predictRetry(w) ? 1 : 0;
        benchmark::DoNotOptimize(retries);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * fx.words.size()));
}
BENCHMARK(BM_RpSyndromeScalar);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    if (!runAllocationAudit())
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
