/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrate: event
 * queue throughput (heap kernel vs the PR-1 binary-heap reference, also
 * under a drive's share of zero-delay events), die
 * batch formation under a GC-shaped backlog, read-script planning
 * (pooled in-place vs allocating), and end-to-end simulated requests
 * per second of the full SSD model.
 */

#include <benchmark/benchmark.h>

#include "common/pool.h"
#include "core/experiment.h"
#include "ssd/devices.h"
#include "ssd/policy.h"
#include "ssd/sim.h"

namespace {

using namespace rif;
using namespace rif::ssd;

/**
 * Drive either kernel through the same workload: `n` events with a
 * pseudo-random spread of delays, each firing one nop. `Mix` selects the
 * delay pattern:
 *  - Uniform: delays spread over ~1000 ticks (dense same-window load);
 *  - SsdMix:  the delay population a real replay produces (zero-delay
 *    batch pokes, DMA/decode in the tens of microseconds, programs and
 *    erases hundreds of microseconds out).
 */
enum class Mix
{
    Uniform,
    SsdMix,
};

inline Tick
delayFor(Mix mix, int i)
{
    const std::uint32_t h = static_cast<std::uint32_t>(i) * 2654435761u;
    if (mix == Mix::Uniform)
        return h % 1000;
    switch (h % 8) {
      case 0:
      case 1:
        return 0; // batch-formation pokes
      case 2:
      case 3:
        return 13000 + h % 3000; // DMA / decode
      case 4:
      case 5:
        return 7000 + h % 7000; // sense
      case 6:
        return 400000 + h % 50000; // program
      default:
        return 3500000 + h % 100000; // erase
    }
}

template <typename Kernel>
void
BM_QueueKernel(benchmark::State &state)
{
    const Mix mix = static_cast<Mix>(state.range(0));
    constexpr int kEvents = 20000;
    // One long-lived kernel, reused across iterations (schedule() is
    // relative to now(), so a drained simulator keeps working): this
    // measures steady-state throughput, the regime a trace replay
    // spends all its time in, rather than construction cost.
    Kernel sim;
    int fired = 0;
    for (auto _ : state) {
        // Half the events up front, half rescheduled from inside
        // events — the shape of a discrete-event simulation.
        for (int i = 0; i < kEvents / 2; ++i) {
            sim.schedule(delayFor(mix, i), [&sim, &fired, mix, i] {
                ++fired;
                sim.schedule(delayFor(mix, i + kEvents / 2),
                             [&fired] { ++fired; });
            });
        }
        sim.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kEvents);
    state.SetLabel(mix == Mix::Uniform ? "uniform" : "ssd-mix");
}

void
BM_EventQueue(benchmark::State &state)
{
    BM_QueueKernel<Simulator>(state);
}
BENCHMARK(BM_EventQueue)
    ->Arg(static_cast<int>(Mix::Uniform))
    ->Arg(static_cast<int>(Mix::SsdMix));

void
BM_ReferenceEventQueue(benchmark::State &state)
{
    BM_QueueKernel<ReferenceSimulator>(state);
}
BENCHMARK(BM_ReferenceEventQueue)
    ->Arg(static_cast<int>(Mix::Uniform))
    ->Arg(static_cast<int>(Mix::SsdMix));

/**
 * The same-tick share of a drive: `n` events in all, half seeded at
 * non-zero delays of the SSD mix, and every seed schedules one
 * follow-up. Two in five seeds (a fifth of all events) make it a
 * zero-delay poke, as `DieModel::kick` does; the rest go a DMA, sense,
 * program or erase out.
 */
template <typename Kernel>
void
BM_ZeroDelayKernel(benchmark::State &state)
{
    constexpr int kEvents = 20000;
    Kernel sim;
    int fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < kEvents / 2; ++i) {
            sim.schedule(1 + delayFor(Mix::SsdMix, i), [&sim, &fired, i] {
                ++fired;
                const Tick d =
                    i % 5 < 2 ? 0 : 1 + delayFor(Mix::SsdMix, i + kEvents);
                sim.schedule(d, [&fired] { ++fired; });
            });
        }
        sim.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kEvents);
    state.SetLabel("zero-delay-20%");
}

void
BM_EventQueueZeroDelay(benchmark::State &state)
{
    BM_ZeroDelayKernel<Simulator>(state);
}
BENCHMARK(BM_EventQueueZeroDelay);

void
BM_ReferenceEventQueueZeroDelay(benchmark::State &state)
{
    BM_ZeroDelayKernel<ReferenceSimulator>(state);
}
BENCHMARK(BM_ReferenceEventQueueZeroDelay);

/**
 * Die batch formation behind a GC-shaped backlog: `range(0)` relocation
 * programs queued on plane 0 plus a few reads on each other plane, all
 * enqueued at one tick and drained. The first batches are multi-plane;
 * then the die forms one single-plane write batch per queued program,
 * so the cost per op shows whether batch formation scales with the
 * backlog or with the plane count.
 */
void
BM_DieBatch(benchmark::State &state)
{
    const int backlog = static_cast<int>(state.range(0));
    constexpr int kReadsPerPlane = 4;
    SsdConfig cfg;
    cfg.geometry.channels = 1;
    cfg.geometry.diesPerChannel = 1;
    const int planes = cfg.geometry.planesPerDie;
    Simulator sim;
    ChannelUsage usage;
    EccEngine ecc(sim, cfg);
    ChannelModel channel(sim, cfg, ecc, usage);
    ecc.setChannel(&channel);
    DieModel die(sim, cfg, channel);

    const int reads = (planes - 1) * kReadsPerPlane;
    std::vector<PageOp> ops(static_cast<std::size_t>(backlog + reads));
    for (int i = 0; i < backlog; ++i) {
        PageOp &op = ops[static_cast<std::size_t>(i)];
        op.type = PageOp::Type::Write;
        op.addr.plane = 0;
        op.dieTicks = cfg.timing.tProg;
    }
    for (int i = 0; i < reads; ++i) {
        PageOp &op = ops[static_cast<std::size_t>(backlog + i)];
        op.type = PageOp::Type::Read;
        op.addr.plane = 1 + i % (planes - 1);
        op.script.phases = {ReadPhase::die(cfg.timing.tR),
                            ReadPhase::xfer(ChannelState::CorXfer)};
    }
    // Enqueue order: the reads interleave with the first programs.
    std::vector<PageOp *> order;
    for (int i = 0; i < backlog; ++i) {
        order.push_back(&ops[static_cast<std::size_t>(i)]);
        if (i < reads)
            order.push_back(&ops[static_cast<std::size_t>(backlog + i)]);
    }
    std::int64_t done = 0;
    for (auto _ : state) {
        for (PageOp *op : order) {
            op->phase = 0;
            op->onComplete = [&done](PageOp *) { ++done; };
            die.enqueueQuiet(op);
        }
        die.kick();
        sim.run();
    }
    benchmark::DoNotOptimize(done);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(ops.size()));
}
BENCHMARK(BM_DieBatch)->Arg(256)->Arg(2048);

void
BM_PlanRead(benchmark::State &state)
{
    SsdConfig cfg;
    cfg.policy = static_cast<PolicyKind>(state.range(0));
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(planRead(cfg, bm, 0.009, rng));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PlanRead)
    ->Arg(static_cast<int>(PolicyKind::Sentinel))
    ->Arg(static_cast<int>(PolicyKind::Rif));

/** Heap-allocating PageOp + planRead per page — the PR-1 read path. */
void
BM_PageOpMalloc(benchmark::State &state)
{
    SsdConfig cfg;
    cfg.policy = PolicyKind::Rif;
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(1);
    for (auto _ : state) {
        auto *op = new PageOp;
        op->type = PageOp::Type::Read;
        op->script = planRead(cfg, bm, 0.009, rng);
        benchmark::DoNotOptimize(op);
        delete op;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PageOpMalloc);

/** Pooled PageOp + planReadInto — the zero-alloc steady-state path. */
void
BM_PageOpPooled(benchmark::State &state)
{
    SsdConfig cfg;
    cfg.policy = PolicyKind::Rif;
    const auto bm = makeBehaviorModel(cfg);
    Rng rng(1);
    ObjectPool<PageOp> pool;
    for (auto _ : state) {
        PageOp *op = pool.acquire();
        op->type = PageOp::Type::Read;
        op->phase = 0;
        planReadInto(cfg, bm, 0.009, rng, op->script);
        benchmark::DoNotOptimize(op);
        pool.release(op);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PageOpPooled);

void
BM_FullSsdRun(benchmark::State &state)
{
    // Simulated-requests-per-wall-second of the complete model.
    for (auto _ : state) {
        Experiment e;
        e.withPolicy(PolicyKind::Rif).withPeCycles(1000.0);
        RunScale rs;
        rs.requests = 1000;
        benchmark::DoNotOptimize(e.run("Ali124", rs));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_FullSsdRun)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
