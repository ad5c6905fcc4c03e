/**
 * @file
 * Tests of the discrete-event kernel: time ordering, FIFO tie-breaking
 * (including the delay rings merged by the heap), reentrancy (events
 * scheduling events), in-place execution in the action slab, the
 * watchdog run bound and the exact nextEventBound() values the fleet's
 * rounds depend on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
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
    // A tick beyond the bound window (2^14 ticks) but inside the span
    // (2^24): run() repositions the window before executing it, which
    // must preserve schedule order.
    Simulator sim;
    std::vector<int> order;
    const Tick far = 100000;
    for (int i = 0; i < 8; ++i)
        sim.schedule(far, [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(sim.now(), far);
}

TEST(Simulator, FarFutureEventsUseOverflow)
{
    // Beyond the bound span (~16.8M ticks) events must still
    // interleave correctly with near events.
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
    // Scheduling at the current tick after run() drained the queue
    // must execute on the next run() (a calendar kernel once missed
    // such events behind its scan cursor).
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

/** Delay population spanning every bound regime: same-tick, inside
 *  the 2^14-tick window, inside the 2^24-tick span and beyond it. */
constexpr Tick kDelays[] = {
    0,     0,      1,      3,       17,       900,
    10000, 16384,  123456, 500000,  4000000,  20000000,
};

/**
 * Drive a kernel through a randomized script mixing every delay
 * regime of kDelays with events that schedule more events, and log
 * the execution order.
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

/**
 * nextEventBound() is part of the kernel's observable behaviour: the
 * fleet sizes its synchronization rounds from it, so the round counts
 * in the goldens depend on its exact values, not only on it being a
 * lower bound. The contract: a virtual 2^14-tick window and a 2^24-tick
 * span, both based at 0 until the kernel repositions them. The earliest
 * pending tick m is reported as m inside the window (exact), floored to
 * a multiple of 2^14 inside the span, and as m beyond the span.
 */
TEST(Simulator, NextEventBoundQuantization)
{
    constexpr Tick kWindow = Tick(1) << 14;
    constexpr Tick kSpan = Tick(1) << 24;
    {
        Simulator sim;
        EXPECT_EQ(sim.nextEventBound(), ~Tick(0));
        sim.scheduleAt(kWindow - 1, [] {});
        EXPECT_EQ(sim.nextEventBound(), kWindow - 1); // inside window
    }
    {
        Simulator sim;
        sim.scheduleAt(100000, [] {});
        EXPECT_EQ(sim.nextEventBound(), 6 * kWindow); // floored
    }
    {
        Simulator sim;
        sim.scheduleAt(kSpan + 12345, [] {});
        EXPECT_EQ(sim.nextEventBound(), kSpan + 12345); // beyond span
        // A push below the cached bound replaces it with its own tick,
        // unfloored, although it lies outside the window.
        sim.scheduleAt(100000, [] {});
        EXPECT_EQ(sim.nextEventBound(), 100000u);
        // A push above the cached bound leaves it alone.
        sim.scheduleAt(200000, [] {});
        EXPECT_EQ(sim.nextEventBound(), 100000u);
    }
    {
        Simulator sim;
        int fired = 0;
        sim.scheduleAt(100000, [&] { ++fired; });
        EXPECT_EQ(sim.nextEventBound(), 6 * kWindow);
        // A horizon below the bound is a pure clock advance.
        EXPECT_EQ(sim.runUntil(90000), 90000u);
        EXPECT_EQ(sim.nextEventBound(), 6 * kWindow);
        // A horizon at or past the inexact bound repositions the window
        // onto the event even if the event itself lies beyond it; the
        // bound becomes exact.
        EXPECT_EQ(sim.runUntil(99000), 99000u);
        EXPECT_EQ(fired, 0);
        EXPECT_EQ(sim.nextEventBound(), 100000u);
        sim.runUntil(100000);
        EXPECT_EQ(fired, 1);
        // The window now starts at 6 * 2^14: the next window up floors.
        sim.scheduleAt(7 * kWindow + 5, [] {});
        EXPECT_EQ(sim.nextEventBound(), 7 * kWindow);
        sim.scheduleAt(7 * kWindow - 1, [] {});
        EXPECT_EQ(sim.nextEventBound(), 7 * kWindow - 1);
    }
    {
        // run() repositions the window and the span as it goes; both
        // stay where the last event left them.
        Simulator sim;
        sim.scheduleAt(3 * kSpan + 7, [] {});
        sim.run();
        sim.scheduleAt(3 * kSpan + 100, [] {});
        EXPECT_EQ(sim.nextEventBound(), 3 * kSpan + 100);
        sim.run();
        sim.scheduleAt(3 * kSpan + 5 * kWindow + 1, [] {});
        EXPECT_EQ(sim.nextEventBound(), 3 * kSpan + 5 * kWindow);
        sim.run();
        sim.scheduleAt(4 * kSpan + 1, [] {});
        EXPECT_EQ(sim.nextEventBound(), 4 * kSpan + 1);
    }
}

/**
 * A test-local model of the bound contract (see
 * NextEventBoundQuantization) on top of a plain ordered set: the
 * production kernel must reproduce its bounds, clocks and execution
 * order under a random mix of pushes, bound queries, runUntil horizons
 * and watchdog-limited runs.
 */
class BoundModel
{
  public:
    static constexpr Tick kWindow = Tick(1) << 14;
    static constexpr Tick kSpan = Tick(1) << 24;

    Tick now() const { return now_; }

    void
    push(Tick when, int id)
    {
        pending_.emplace(std::make_pair(when, seq_++), id);
        if (cacheValid_ && when < cache_) {
            cache_ = when;
            cacheExact_ = inWindow(when);
        }
    }

    Tick
    bound()
    {
        if (pending_.empty())
            return ~Tick(0);
        if (!cacheValid_) {
            const Tick m = pending_.begin()->first.first;
            cacheExact_ = inWindow(m);
            if (cacheExact_ || m - span_ >= kSpan)
                cache_ = m;
            else
                cache_ = m / kWindow * kWindow;
            cacheValid_ = true;
        }
        return cache_;
    }

    template <typename Exec>
    void
    runUntil(Tick limit, Exec exec)
    {
        while (!pending_.empty()) {
            const Tick e = bound();
            if (e > limit)
                break;
            if (!cacheExact_)
                reposition();
            else
                step(exec);
        }
        if (now_ < limit)
            now_ = limit;
    }

    template <typename Exec>
    void
    run(std::uint64_t budget, Exec exec)
    {
        for (; budget > 0 && !pending_.empty(); --budget) {
            if (!inWindow(pending_.begin()->first.first))
                reposition();
            step(exec);
        }
    }

  private:
    bool inWindow(Tick t) const { return t - window_ < kWindow; }

    void
    reposition()
    {
        const Tick m = pending_.begin()->first.first;
        window_ = m / kWindow * kWindow;
        span_ = m / kSpan * kSpan;
        cacheValid_ = false;
    }

    template <typename Exec>
    void
    step(Exec exec)
    {
        const auto it = pending_.begin();
        now_ = it->first.first;
        const int id = it->second;
        pending_.erase(it);
        cacheValid_ = false;
        exec(id);
    }

    std::map<std::pair<Tick, std::uint64_t>, int> pending_;
    std::uint64_t seq_ = 0;
    Tick now_ = 0;
    Tick window_ = 0;
    Tick span_ = 0;
    Tick cache_ = 0;
    bool cacheExact_ = false;
    bool cacheValid_ = false;
};

/**
 * Drive `sim` and a BoundModel through the same random mix of pushes
 * at `steps` delays, bound queries, runUntil horizons and
 * watchdog-limited runs, then drain both; bounds, clocks and execution
 * order must agree throughout. Every fourth top-level event spawns one
 * child. With `bursts`, some pushes come as 80 keys at one delay.
 */
void
expectMatchesBoundModel(Simulator &sim, const std::vector<Tick> &steps,
                        std::uint64_t seed, bool bursts)
{
    const std::size_t numSteps = steps.size();
    BoundModel model;
    std::vector<int> simLog, modelLog;
    int next_id = 0;
    const auto childDelay = [&](int id) {
        return steps[static_cast<std::size_t>(id) % numSteps];
    };
    std::function<void(int)> simEvent = [&](int id) {
        simLog.push_back(id);
        if (id < 1000000 && id % 4 == 0) {
            const int cid = id + 1000000;
            sim.schedule(childDelay(id), [&simEvent, cid] { simEvent(cid); });
        }
    };
    std::function<void(int)> modelEvent = [&](int id) {
        modelLog.push_back(id);
        if (id < 1000000 && id % 4 == 0)
            model.push(model.now() + childDelay(id), id + 1000000);
    };
    Rng rng(seed);
    for (int op = 0; op < 3000; ++op) {
        const std::uint64_t kind = rng.below(10);
        if (kind < 5) {
            const Tick when = sim.now() + steps[rng.below(numSteps)];
            const int n = bursts && rng.below(40) == 0 ? 80 : 1;
            for (int k = 0; k < n; ++k) {
                const int id = next_id++;
                sim.scheduleAt(when, [&simEvent, id] { simEvent(id); });
                model.push(when, id);
            }
        } else if (kind < 9) {
            // Fleet-style horizon: bound + lookahead, or a plain step
            // from the current clock.
            const Tick b = sim.nextEventBound();
            ASSERT_EQ(b, model.bound()) << "seed=" << seed << " op=" << op;
            Tick limit = sim.now() + steps[rng.below(numSteps)];
            if (b != ~Tick(0) && rng.below(2) == 0)
                limit = std::max(b, sim.now()) + 10000 - 1;
            sim.runUntil(limit);
            model.runUntil(limit, modelEvent);
        } else {
            const std::uint64_t budget = rng.below(6);
            sim.run(budget);
            model.run(budget, modelEvent);
        }
        ASSERT_EQ(sim.now(), model.now()) << "seed=" << seed << " op=" << op;
        ASSERT_EQ(sim.nextEventBound(), model.bound())
            << "seed=" << seed << " op=" << op;
    }
    sim.run();
    model.run(~std::uint64_t(0), modelEvent);
    EXPECT_EQ(simLog, modelLog) << "seed=" << seed;
    EXPECT_EQ(sim.now(), model.now()) << "seed=" << seed;
}

TEST(Simulator, NextEventBoundMatchesContractModel)
{
    const std::vector<Tick> steps = {
        0,      1,      700,      16383,    16384,    16385,
        40000,  100000, 1500000,  16777215, 16777216, 20000000,
        90000000,
    };
    for (std::uint64_t seed : {3u, 11u, 2024u, 99991u}) {
        Simulator sim;
        expectMatchesBoundModel(sim, steps, seed, false);
    }
}

/**
 * A small fixed delay alphabet for the delay rings: 0 (the same-tick
 * ring), 43, 13 000 and 42 006, whose two hashed ring choices are the
 * same pair (so with two of them pending the third has no ring and
 * goes to the heap alone), 400 002 and 7, which share one choice with
 * them, and bursts of 80 keys at one delay, more than a fresh ring
 * holds, so rings grow while keys wait in them.
 */
constexpr Tick kRingDelays[] = {0, 43, 13000, 42006, 400002, 7};

/** The two hashed ring choices of a non-zero delay (as in sim.cc),
 *  lower first. */
std::pair<unsigned, unsigned>
ringChoices(Tick delay)
{
    const std::uint64_t h = delay * 0x9E3779B97F4A7C15ull;
    return std::minmax(static_cast<unsigned>((h >> 45) & 7),
                       static_cast<unsigned>((h >> 40) & 7));
}

TEST(Simulator, RingAlphabetCollidesOnBothChoices)
{
    // Guards the alphabet above: if the hash changes, pick new
    // colliders so the heap fallback stays exercised.
    const auto pair = ringChoices(13000);
    EXPECT_NE(pair.first, pair.second);
    EXPECT_EQ(ringChoices(42006), pair);
    EXPECT_EQ(ringChoices(43), pair);
    const auto shares_one = [&](Tick d) {
        const auto p = ringChoices(d);
        return (p.first == pair.first || p.first == pair.second ||
                p.second == pair.first || p.second == pair.second) &&
               p != pair;
    };
    EXPECT_TRUE(shares_one(400002));
    EXPECT_TRUE(shares_one(7));
}

/**
 * Drive a kernel through a random script over kRingDelays: outside
 * schedule() and scheduleAt() pushes, bursts, watchdog-limited runs,
 * and events that schedule children at alphabet delays.
 */
template <typename Kernel>
std::vector<std::pair<Tick, int>>
runRingScript(std::uint64_t seed)
{
    constexpr std::size_t kNum = sizeof(kRingDelays) / sizeof(kRingDelays[0]);
    Kernel sim;
    std::vector<std::pair<Tick, int>> log;
    Rng rng(seed);
    int next_id = 0;
    std::function<void(int)> event = [&](int id) {
        log.emplace_back(sim.now(), id);
        // Children: none, one or two, at delays derived from the id.
        for (int c = 0; c < id % 3; ++c) {
            const int cid = 1000000 + id * 2 + c;
            if (cid >= 8000000)
                break;
            sim.schedule(kRingDelays[static_cast<std::size_t>(cid) % kNum],
                         [&event, cid] { event(cid); });
        }
    };
    for (int op = 0; op < 2000; ++op) {
        const std::uint64_t kind = rng.below(10);
        const Tick d = kRingDelays[rng.below(kNum)];
        if (kind < 3) {
            const int id = next_id++;
            sim.schedule(d, [&event, id] { event(id); });
        } else if (kind < 6) {
            const int id = next_id++;
            sim.scheduleAt(sim.now() + d, [&event, id] { event(id); });
        } else if (kind < 7) {
            for (int k = 0; k < 80; ++k) {
                const int id = next_id++;
                sim.schedule(d, [&event, id] { event(id); });
            }
        } else {
            sim.run(rng.below(40));
        }
    }
    sim.run();
    return log;
}

TEST(Simulator, DelayRingsMatchReferenceKernel)
{
    for (std::uint64_t seed : {2u, 19u, 777u, 31337u}) {
        const auto production = runRingScript<Simulator>(seed);
        const auto reference = runRingScript<ReferenceSimulator>(seed);
        ASSERT_EQ(production.size(), reference.size()) << "seed=" << seed;
        EXPECT_EQ(production, reference) << "seed=" << seed;
    }
}

TEST(Simulator, DelayRingsMatchContractModel)
{
    const std::vector<Tick> steps(std::begin(kRingDelays),
                                  std::end(kRingDelays));
    for (std::uint64_t seed : {4u, 23u, 4096u, 65521u}) {
        Simulator sim;
        expectMatchesBoundModel(sim, steps, seed, true);
        // Bursts left more than 64 keys waiting at one delay.
        EXPECT_GT(sim.peakQueueSize(), 80u) << "seed=" << seed;
    }
}

TEST(Simulator, MatchesReferenceKernelOnRandomScripts)
{
    for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
        const auto production = runRandomScript<Simulator>(seed);
        const auto reference = runRandomScript<ReferenceSimulator>(seed);
        ASSERT_EQ(production.size(), reference.size()) << "seed=" << seed;
        EXPECT_EQ(production, reference) << "seed=" << seed;
    }
}

/**
 * Drive a kernel through a script built for the same-tick ring: outside
 * pushes at the current tick beside future ones, watchdog-limited runs
 * that stop mid-tick, zero-delay chains of random length and events
 * that fan out into mixed zero and non-zero delays.
 */
template <typename Kernel>
std::vector<std::pair<Tick, int>>
runSameTickScript(std::uint64_t seed)
{
    Kernel sim;
    std::vector<std::pair<Tick, int>> log;
    Rng rng(seed);
    int next_id = 0;
    // chain(id, left): log, then hand off to a zero-delay successor.
    std::function<void(int, int)> chain = [&](int id, int left) {
        log.emplace_back(sim.now(), id);
        if (left > 0)
            sim.schedule(0, [&chain, id, left] {
                chain(id + 1000000, left - 1);
            });
    };
    const auto fanOut = [&](int id) {
        log.emplace_back(sim.now(), id);
        // Children alternate between the current tick and the near
        // future, so keys at the current tick that were scheduled
        // before it and same-tick ring entries interleave.
        for (int c = 0; c < 3; ++c) {
            const int cid = 2000000 + id * 4 + c;
            const Tick d = (id + c) % 2 == 0 ? 0 : Tick(1 + c);
            sim.schedule(d, [&log, &sim, cid] {
                log.emplace_back(sim.now(), cid);
            });
        }
    };
    for (int op = 0; op < 600; ++op) {
        const std::uint64_t kind = rng.below(8);
        const Tick d = kind < 3 ? 0 : Tick(rng.below(4));
        const int id = next_id++;
        if (kind < 4) {
            const int len = static_cast<int>(rng.below(5));
            sim.schedule(d, [&chain, id, len] { chain(id, len); });
        } else if (kind < 6) {
            sim.schedule(d, [&fanOut, id] { fanOut(id); });
        } else {
            sim.run(rng.below(7));
        }
    }
    sim.run();
    return log;
}

TEST(Simulator, ZeroDelayChainsMatchReference)
{
    // A chain whose every link schedules its successor at delay 0 runs
    // entirely at one tick, after everything already due there.
    const auto script = [](auto &sim, auto &log) {
        for (int i = 0; i < 4; ++i) {
            sim.schedule(10, [&sim, &log, i] {
                log.emplace_back(sim.now(), i);
                sim.schedule(0, [&sim, &log, i] {
                    log.emplace_back(sim.now(), 10 + i);
                    sim.schedule(0, [&sim, &log, i] {
                        log.emplace_back(sim.now(), 20 + i);
                    });
                });
            });
        }
    };
    Simulator sim;
    ReferenceSimulator ref;
    std::vector<std::pair<Tick, int>> simLog, refLog;
    script(sim, simLog);
    script(ref, refLog);
    sim.run();
    ref.run();
    EXPECT_EQ(simLog, refLog);
    ASSERT_EQ(simLog.size(), 12u);
    EXPECT_EQ(simLog.back(), (std::pair<Tick, int>{10, 23}));
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, MatchesReferenceKernelOnSameTickScripts)
{
    for (std::uint64_t seed : {5u, 17u, 321u, 65537u}) {
        const auto production = runSameTickScript<Simulator>(seed);
        const auto reference = runSameTickScript<ReferenceSimulator>(seed);
        ASSERT_EQ(production.size(), reference.size()) << "seed=" << seed;
        EXPECT_EQ(production, reference) << "seed=" << seed;
    }
}

TEST(Simulator, OutsideScheduleAtNowAfterClockAdvance)
{
    // runUntil past an empty window moves the clock but not the window;
    // an outside schedule at the new now() then sits outside the window,
    // so the bound is the inexact, floored or cached value of the
    // quantization, exactly as if the event had gone through the heap.
    constexpr Tick kWindow = Tick(1) << 14;
    {
        Simulator sim;
        sim.runUntil(100000);
        sim.scheduleAt(sim.now(), [] {});
        EXPECT_EQ(sim.nextEventBound(), 6 * kWindow); // floored
        int fired = 0;
        sim.scheduleAt(sim.now(), [&] { ++fired; });
        EXPECT_EQ(sim.runUntil(100000), 100000u);
        EXPECT_EQ(fired, 1);
        EXPECT_TRUE(sim.empty());
    }
    {
        Simulator sim;
        std::vector<int> order;
        sim.scheduleAt(200000, [&] { order.push_back(2); });
        EXPECT_EQ(sim.nextEventBound(), 12 * kWindow);
        // A horizon below the bound: a pure clock advance.
        EXPECT_EQ(sim.runUntil(150000), 150000u);
        EXPECT_EQ(sim.nextEventBound(), 12 * kWindow);
        // A push below the cached bound replaces it, unfloored.
        sim.scheduleAt(sim.now(), [&] { order.push_back(1); });
        EXPECT_EQ(sim.nextEventBound(), 150000u);
        // Acting on the inexact bound repositions onto now(); the
        // remaining event floors against the new window.
        sim.runUntil(150000);
        EXPECT_EQ(order, (std::vector<int>{1}));
        EXPECT_EQ(sim.nextEventBound(), 12 * kWindow);
        sim.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2}));
    }
    {
        // Same, but the outside push lands in the window: exact.
        Simulator sim;
        sim.runUntil(kWindow - 10);
        sim.scheduleAt(sim.now(), [] {});
        EXPECT_EQ(sim.nextEventBound(), kWindow - 10);
    }
}

TEST(Simulator, SlabGrowsWhileAnActionRuns)
{
    // One action schedules several chunks' worth of events, so the slab
    // grows under it; it must still read its own captures afterwards
    // (under ASan a moved slot would be a use-after-free).
    Simulator sim;
    std::vector<int> order;
    std::vector<int> payload(64);
    for (int i = 0; i < 64; ++i)
        payload[i] = i * 3;
    int sum = 0;
    sim.schedule(1, [&sim, &order, &sum, payload] {
        for (int i = 0; i < 1500; ++i)
            sim.schedule(static_cast<Tick>(i % 3),
                         [&order, i] { order.push_back(i); });
        for (int v : payload)
            sum += v;
    });
    sim.run();
    EXPECT_EQ(sum, 3 * 63 * 64 / 2);
    ASSERT_EQ(order.size(), 1500u);
    // Delay 0 first (ring 0 at tick 1), then ticks 2 and 3, each in
    // schedule order.
    std::vector<int> expected;
    for (int r = 0; r < 3; ++r)
        for (int i = r; i < 1500; i += 3)
            expected.push_back(i);
    EXPECT_EQ(order, expected);
}

TEST(Simulator, CapturesAreReleasedRightAfterTheirEvent)
{
    Simulator sim;
    auto owned = std::make_shared<int>(7);
    const std::weak_ptr<int> watch = owned;
    bool aliveDuring = false;
    bool aliveAfter = true;
    sim.schedule(5, [&aliveDuring, &watch, p = std::move(owned)] {
        aliveDuring = !watch.expired() && *p == 7;
    });
    // Same tick, next in line: the capture must already be gone.
    sim.schedule(5, [&] { aliveAfter = !watch.expired(); });
    sim.run();
    EXPECT_TRUE(aliveDuring);
    EXPECT_FALSE(aliveAfter);

    // A zero-delay (same-tick ring) event likewise.
    auto owned2 = std::make_shared<int>(8);
    const std::weak_ptr<int> watch2 = owned2;
    sim.schedule(0, [p = std::move(owned2)] { (void)p; });
    sim.schedule(0, [&] { aliveAfter = !watch2.expired(); });
    sim.run();
    EXPECT_FALSE(aliveAfter);
}

TEST(Simulator, PeakQueueSizeCountsSameTickEvents)
{
    Simulator sim;
    for (int i = 0; i < 3; ++i)
        sim.schedule(0, [] {});
    sim.schedule(4, [] {});
    EXPECT_EQ(sim.peakQueueSize(), 4u);
    sim.run();
    EXPECT_EQ(sim.peakQueueSize(), 4u);

    // From inside an event: the running event is no longer pending,
    // the tick-30 one still is, and ten same-tick pushes join it.
    Simulator fan;
    fan.schedule(1, [&fan] {
        for (int i = 0; i < 10; ++i)
            fan.schedule(0, [] {});
    });
    fan.schedule(30, [] {});
    EXPECT_EQ(fan.peakQueueSize(), 2u);
    fan.run();
    EXPECT_EQ(fan.peakQueueSize(), 11u);

    // Keys waiting behind a ring's head count too: five at one delay
    // (one head in the heap, four in its ring) and three same-tick.
    Simulator ring;
    for (int i = 0; i < 5; ++i)
        ring.schedule(13000, [] {});
    EXPECT_EQ(ring.peakQueueSize(), 5u);
    ring.schedule(2, [&ring] {
        for (int i = 0; i < 3; ++i)
            ring.schedule(0, [] {});
    });
    EXPECT_EQ(ring.peakQueueSize(), 6u);
    ring.run();
    EXPECT_EQ(ring.peakQueueSize(), 8u);
}

} // namespace
} // namespace ssd
} // namespace rif
