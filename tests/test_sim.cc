/**
 * @file
 * Tests of the discrete-event kernel: time ordering, FIFO tie-breaking,
 * reentrancy (events scheduling events) and the watchdog run bound.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "ssd/sim.h"

namespace rif {
namespace ssd {
namespace {

TEST(Simulator, ExecutesInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTickIsFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule(7, [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleMoreEvents)
{
    Simulator sim;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10)
            sim.schedule(5, chain);
    };
    sim.schedule(5, chain);
    sim.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTick)
{
    Simulator sim;
    Tick seen = 1;
    sim.schedule(100, [&] {
        sim.schedule(0, [&] { seen = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(seen, 100u);
}

TEST(Simulator, RunBoundStopsEarly)
{
    Simulator sim;
    int fired = 0;
    std::function<void()> forever = [&] {
        ++fired;
        sim.schedule(1, forever);
    };
    sim.schedule(1, forever);
    sim.run(100);
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(sim.eventsExecuted(), 100u);
    EXPECT_FALSE(sim.empty());
}

TEST(Simulator, ScheduleAtAbsoluteTime)
{
    Simulator sim;
    Tick seen = 0;
    sim.scheduleAt(42, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 42u);
}

TEST(Simulator, EmptyRunIsANoop)
{
    Simulator sim;
    EXPECT_EQ(sim.run(), 0u);
    EXPECT_TRUE(sim.empty());
}

TEST(Simulator, SameTickFifoSpansScheduleBoundaries)
{
    // Events appended to an already-executing tick (zero-delay
    // schedules from inside events) still run after everything
    // scheduled for that tick earlier.
    Simulator sim;
    std::vector<int> order;
    sim.schedule(50, [&] {
        order.push_back(0);
        sim.schedule(0, [&] { order.push_back(3); });
    });
    sim.schedule(50, [&] { order.push_back(1); });
    sim.schedule(50, [&] {
        order.push_back(2);
        sim.schedule(0, [&] { order.push_back(4); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, SameTickFifoAcrossCascade)
{
    // A tick beyond the L0 window: its events sit in L1 until the
    // cascade replays them, which must preserve schedule order.
    Simulator sim;
    std::vector<int> order;
    const Tick far = 100000; // > kL0Slots, < kL1Span
    for (int i = 0; i < 8; ++i)
        sim.schedule(far, [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(sim.now(), far);
}

TEST(Simulator, FarFutureEventsUseOverflow)
{
    // Beyond the L1 span (~16.8M ticks) events live in the overflow
    // heap; they must still interleave correctly with near events.
    Simulator sim;
    std::vector<std::pair<Tick, int>> log;
    auto mark = [&](int id) {
        return [&log, &sim, id] { log.emplace_back(sim.now(), id); };
    };
    sim.schedule(100000000, mark(0)); // deep overflow
    sim.schedule(20000000, mark(1));  // just past the L1 span
    sim.schedule(5, mark(2));
    sim.schedule(100000000, mark(3)); // same far tick: FIFO with 0
    sim.run();
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0], (std::pair<Tick, int>{5, 2}));
    EXPECT_EQ(log[1], (std::pair<Tick, int>{20000000, 1}));
    EXPECT_EQ(log[2], (std::pair<Tick, int>{100000000, 0}));
    EXPECT_EQ(log[3], (std::pair<Tick, int>{100000000, 3}));
}

TEST(Simulator, RunBoundResumesMidSlot)
{
    // Stopping the watchdog inside a tick's bucket and resuming must
    // not skip or reorder the remainder of that bucket.
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 6; ++i)
        sim.schedule(9, [&order, i] { order.push_back(i); });
    sim.run(2);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_FALSE(sim.empty());
    sim.run(3);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Simulator, ReusableAfterDraining)
{
    // Regression: scheduling at the current tick after run() drained
    // the queue lands behind the L0 scan cursor; the kernel must pull
    // the cursor back instead of missing the slot.
    Simulator sim;
    int fired = 0;
    sim.schedule(123, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
    sim.schedule(0, [&] { ++fired; });
    sim.schedule(7, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(sim.now(), 130u);
}

TEST(Simulator, SchedulingInThePastDies)
{
    Simulator sim;
    sim.schedule(10, [] {});
    sim.run();
    EXPECT_DEATH(sim.scheduleAt(5, [] {}), "past");
}

TEST(ReferenceSimulator, SchedulingInThePastDies)
{
    ReferenceSimulator sim;
    sim.schedule(10, [] {});
    sim.run();
    EXPECT_DEATH(sim.scheduleAt(5, [] {}), "past");
}

/** Delay population spanning every calendar-queue regime: same-tick,
 *  in-window L0, L1 cascade and overflow. */
constexpr Tick kDelays[] = {
    0,     0,      1,      3,       17,       900,
    10000, 16384,  123456, 500000,  4000000,  20000000,
};

/**
 * Drive a kernel through a randomized script mixing every delay
 * regime the calendar queue distinguishes (same-tick, in-window L0,
 * L1 cascade, overflow) with events that schedule more events, and
 * log the execution order.
 */
template <typename Kernel>
std::vector<std::pair<Tick, int>>
runRandomScript(std::uint64_t seed)
{
    Kernel sim;
    std::vector<std::pair<Tick, int>> log;
    Rng rng(seed);
    int next_id = 0;
    for (int i = 0; i < 400; ++i) {
        const Tick d = kDelays[rng.below(12)];
        const int id = next_id++;
        sim.schedule(d, [&log, &sim, id] {
            log.emplace_back(sim.now(), id);
            // Every third event spawns a follow-up with a delay
            // derived from its id (deterministic in both kernels).
            if (id % 3 == 0) {
                const Tick child =
                    kDelays[static_cast<std::size_t>(id) % 12];
                const int cid = 100000 + id;
                sim.schedule(child, [&log, &sim, cid] {
                    log.emplace_back(sim.now(), cid);
                });
            }
        });
    }
    sim.run();
    return log;
}

TEST(Simulator, MatchesReferenceKernelOnRandomScripts)
{
    for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
        const auto calendar = runRandomScript<Simulator>(seed);
        const auto heap = runRandomScript<ReferenceSimulator>(seed);
        ASSERT_EQ(calendar.size(), heap.size()) << "seed=" << seed;
        EXPECT_EQ(calendar, heap) << "seed=" << seed;
    }
}

} // namespace
} // namespace ssd
} // namespace rif
