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
 *    bytes), constructed directly in a slot of a slab of fixed-size
 *    chunks. A chunk never moves, so an action runs where it lies and
 *    its slot is freed only after it returns, even if it schedules
 *    enough events to grow the slab. Future events are keyed in a
 *    4-ary min-heap of 24-byte (when, seq, action) keys, so each costs
 *    O(log pending) key moves and no empty tick is ever visited.
 *    Events scheduled at the current tick (about a fifth of a drive's,
 *    mostly die batch pokes) skip the heap: they go to a same-tick
 *    FIFO. Every heap key at the current tick was scheduled before the
 *    clock reached it, so its seq is below every FIFO entry's; running
 *    those keys first and then the FIFO is exactly (when, seq) order,
 *    and seq is the schedule order. One drive runs on one kernel on
 *    one thread.
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
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/units.h"

namespace rif {
namespace ssd {

/** Event-driven simulator kernel (4-ary heap + same-tick FIFO). */
class Simulator
{
  public:
    using Action = InlineFunction<void()>;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule `action` `delay` ticks in the future. */
    template <typename F>
    void
    schedule(Tick delay, F &&action)
    {
        scheduleAt(now_ + delay, std::forward<F>(action));
    }

    /**
     * Schedule at an absolute tick (must not be in the past). The
     * closure is constructed directly in its slab slot.
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&action)
    {
        Action *slot = acquireSlot();
        *slot = std::forward<F>(action);
        enqueue(when, slot);
    }

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
     * tick (now() while the same-tick FIFO holds events), the value is
     * m when m lies inside the current 2^14-tick window (the bound is
     * then exact), m floored to a multiple of 2^14 when m lies beyond
     * the window but inside the current 2^24-tick span, and m beyond
     * the span. Both start at tick 0; run() and runUntil() move them
     * onto m whenever they are about to act on an inexact bound. The
     * value is cached until an event executes or the window moves; a
     * schedule below the cached value replaces it with its own tick.
     */
    Tick nextEventBound();

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** High-water mark of pending events (heap and FIFO together). */
    std::uint64_t peakQueueSize() const { return peakSize_; }

    bool empty() const { return heap_.empty() && fifoSize_ == 0; }

  private:
    /** Heap entry; the action lives in its slab slot. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        Action *action;
    };

    /** (when, seq) order, branch-free: heap sifts compare
     *  unpredictably, so setcc beats a mispredicted jump. */
    static bool
    before(const Key &a, const Key &b)
    {
        return (a.when < b.when) | ((a.when == b.when) & (a.seq < b.seq));
    }

    static constexpr std::size_t kArity = 4;
    static constexpr std::size_t kChunkSlots = 256;
    static constexpr Tick kWindowTicks = Tick(1) << 14;
    static constexpr Tick kSpanTicks = Tick(1) << 24;

    /** A free slab slot, adding a chunk when none is left. */
    Action *
    acquireSlot()
    {
        if (freeSlots_.empty())
            growSlab();
        Action *slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }
    void growSlab();
    /** Queue the constructed action in `slot` for tick `when`. */
    void enqueue(Tick when, Action *slot);
    /** Earliest pending tick of a non-empty queue. */
    Tick
    earliest() const
    {
        return fifoSize_ != 0 ? now_ : heap_.front().when;
    }
    /** Cached nextEventBound() of a non-empty queue; sets `exact`. */
    Tick bound(bool &exact);
    /** Move the window and the span onto tick `m`. */
    void reposition(Tick m);
    /** Double the same-tick FIFO's ring. */
    void growFifo();
    /** Insert a key into the heap. */
    void pushHeap(const Key &key);
    /** Remove and return the heap's least key. */
    Key popHeap();
    /** Take the earliest event off the queue and run it in place. */
    void executeTop();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t peakSize_ = 0;

    std::vector<Key> heap_;
    /** Same-tick FIFO: a ring of actions due at now_, in schedule
     *  order. */
    std::vector<Action *> fifo_;
    std::size_t fifoHead_ = 0;
    std::size_t fifoSize_ = 0;
    /** Action slab: chunks of kChunkSlots that never move. */
    std::vector<std::unique_ptr<Action[]>> chunks_;
    std::vector<Action *> freeSlots_;

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
