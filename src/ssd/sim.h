/**
 * @file
 * Discrete-event simulation kernel: a time-ordered event queue with
 * stable FIFO ordering among same-tick events. Deliberately minimal —
 * components schedule closures; there is no process abstraction.
 *
 * Two kernels live here:
 *
 *  - Simulator: the production kernel. Actions are small-buffer
 *    optimized callables (no heap allocation for captures up to 48
 *    bytes) kept in a free-listed slab, and the pending-event set is a
 *    4-ary min-heap of 24-byte (when, seq, slot) keys, so each event
 *    costs O(log pending) key moves and never touches an empty tick.
 *    Same-tick FIFO order is exact: seq is the schedule order. One
 *    drive runs on one kernel on one thread; parallelism lives a level
 *    up, where a fleet runs whole drives concurrently.
 *
 *    nextEventBound() reports the earliest pending tick through a
 *    fixed quantization (a 2^14-tick window inside a 2^24-tick span,
 *    see below). The fleet sizes its synchronization rounds from these
 *    values, so they are part of the kernel's observable behaviour.
 *
 *  - ReferenceSimulator: the PR-1 std::function + binary-heap kernel,
 *    kept as the oracle for equivalence tests and the BM_Reference*
 *    benchmark rows.
 */

#ifndef RIF_SSD_SIM_H
#define RIF_SSD_SIM_H

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/inline_function.h"
#include "common/units.h"

namespace rif {
namespace ssd {

/** Event-driven simulator kernel (4-ary heap implementation). */
class Simulator
{
  public:
    using Action = InlineFunction<void()>;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule an action `delay` ticks in the future. */
    void schedule(Tick delay, Action action);

    /** Schedule at an absolute tick (must not be in the past). */
    void scheduleAt(Tick when, Action action);

    /** Run until the event queue drains. Returns the final tick. */
    Tick run();

    /** Run at most `max_events` events (watchdog for tests). */
    Tick run(std::uint64_t max_events);

    /**
     * Run every event with `when <= limit`, then advance the clock to
     * `limit` even if the queue drained earlier (so later schedule()
     * calls are relative to the horizon, not the last event). Events
     * beyond `limit` stay queued; the fabric layer uses this to step
     * each drive to a conservative synchronization horizon.
     *
     * Quiescence contract: when nextEventBound() > limit the call is a
     * pure clock advance — no event runs, the window does not move and
     * no future nextEventBound() value changes (the loop breaks on the
     * bound *before* repositioning). The fleet's idle-lane skip relies
     * on exactly this: not invoking runUntil on a drive whose bound
     * lies past the horizon leaves the drive in a state
     * indistinguishable from having invoked it, because the clock is
     * only ever observed while an event executes.
     */
    Tick runUntil(Tick limit);

    /**
     * Earliest pending tick, or a lower bound no later than it;
     * ~Tick(0) when the queue is empty. With m the earliest pending
     * tick, the value is m when m lies inside the current 2^14-tick
     * window (the bound is then exact), m floored to a multiple of
     * 2^14 when m lies beyond the window but inside the current
     * 2^24-tick span, and m beyond the span. Both start at tick 0;
     * run() and runUntil() move them onto m whenever they are about to
     * act on an inexact bound. The value is cached until an event
     * executes or the window moves; a schedule below the cached value
     * replaces it with its own tick.
     */
    Tick nextEventBound();

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** High-water mark of pending events (queue occupancy). */
    std::uint64_t peakQueueSize() const { return peakSize_; }

    bool empty() const { return heap_.empty(); }

  private:
    /** Heap entry; the action lives in actions_[slot]. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** (when, seq) order, branch-free: heap sifts compare
     *  unpredictably, so setcc beats a mispredicted jump. */
    static bool
    before(const Key &a, const Key &b)
    {
        return (a.when < b.when) | ((a.when == b.when) & (a.seq < b.seq));
    }

    static constexpr std::size_t kArity = 4;
    static constexpr Tick kWindowTicks = Tick(1) << 14;
    static constexpr Tick kSpanTicks = Tick(1) << 24;

    /** Cached nextEventBound() of a non-empty queue; sets `exact`. */
    Tick bound(bool &exact);
    /** Move the window and the span onto tick `m`. */
    void reposition(Tick m);
    /** Pop and execute the earliest event. */
    void executeTop();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t peakSize_ = 0;

    std::vector<Key> heap_;
    /** Action slab indexed by Key::slot; free slots are listed. */
    std::vector<Action> actions_;
    std::vector<std::uint32_t> freeSlots_;

    /** First tick of the bound window (multiple of kWindowTicks). */
    Tick windowBase_ = 0;
    /** First tick of the bound span (multiple of kSpanTicks). */
    Tick spanBase_ = 0;
    /** Cached bound() result (see nextEventBound). */
    Tick cacheTick_ = 0;
    bool cacheExact_ = false;
    bool cacheValid_ = false;
};

/**
 * The PR-1 heap-based kernel: std::function actions in a binary heap.
 * Semantically identical to Simulator (time order, same-tick FIFO);
 * kept as the oracle in equivalence tests and for before/after
 * benchmark rows. Not used by the SSD model.
 */
class ReferenceSimulator
{
  public:
    using Action = std::function<void()>;

    Tick now() const { return now_; }
    void schedule(Tick delay, Action action);
    void scheduleAt(Tick when, Action action);
    Tick run();
    Tick run(std::uint64_t max_events);
    std::uint64_t eventsExecuted() const { return executed_; }
    bool empty() const { return queue_.empty(); }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Action action;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

} // namespace ssd
} // namespace rif

#endif // RIF_SSD_SIM_H
