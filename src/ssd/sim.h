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
 *    enough events to grow the slab. Pending events are 32-byte
 *    (when, seq, action, ring) keys. A drive schedules almost all of
 *    them at a few exact delays (fixed flash timings), so the kernel
 *    keeps a few delay rings: FIFOs of keys that share one delay.
 *    Because the clock never goes back and seq only grows, every ring
 *    is already in (when, seq) order, and a 4-ary min-heap merges the
 *    head key of each non-empty ring with the "stray" keys whose delay
 *    has no ring. A push to a non-empty ring is an append; running a
 *    ring head replaces it in the heap by the ring's next key. Ring 0
 *    holds delay 0 (same-tick events, mostly die batch pokes); the
 *    others are picked by a two-choice hash of the delay, and an empty
 *    ring rebinds to a new delay. The merge is exact (when, seq)
 *    order, and seq is the schedule order. One drive runs on one
 *    kernel on one thread.
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

#include <cstddef>
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

/** Event-driven simulator kernel (delay rings merged by a 4-ary heap). */
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
     * tick, the value is m when m lies inside the current 2^14-tick
     * window (the bound is then exact), m floored to a multiple of 2^14
     * when m lies beyond the window but inside the current 2^24-tick
     * span, and m beyond the span. Both start at tick 0; run() and
     * runUntil() move them onto m whenever they are about to act on an
     * inexact bound. The value is cached until an event executes or the
     * window moves; a schedule below the cached value replaces it with
     * its own tick.
     */
    Tick nextEventBound();

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** High-water mark of pending events (rings and heap together). */
    std::uint64_t peakQueueSize() const { return peakSize_; }

    /** No event pending (a non-empty ring has its head in the heap). */
    bool empty() const { return heap_.empty(); }

  private:
    /** A pending event; the action lives in its slab slot. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        Action *action;
        /** Ring holding the key, or kStray for a heap-only key. */
        std::uint32_t ring;
    };

    /** FIFO of keys at one delay: a power-of-two circular buffer. */
    struct Ring
    {
        std::vector<Key> keys;
        std::size_t head = 0;
        std::size_t size = 0;
        Tick delay = 0;
    };

    /** (when, seq) order, branch-free: heap sifts compare
     *  unpredictably, so setcc beats a mispredicted jump. */
    static bool
    before(const Key &a, const Key &b)
    {
        return (a.when < b.when) | ((a.when == b.when) & (a.seq < b.seq));
    }

    static constexpr std::size_t kArity = 4;
    /** Ring 0 (delay 0) plus eight hashed rings. */
    static constexpr std::uint32_t kRings = 9;
    static constexpr std::uint32_t kStray = kRings;
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
    Tick earliest() const { return heap_.front().when; }
    /** Ring for a key `delay` ticks out, binding an empty one to it;
     *  kStray when both hashed choices hold other delays. */
    std::uint32_t ringFor(Tick delay);
    /** Cached nextEventBound() of a non-empty queue; sets `exact`. */
    Tick bound(bool &exact);
    /** Move the window and the span onto tick `m`. */
    void reposition(Tick m);
    /** Double a ring's buffer. */
    static void growRing(Ring &ring);
    /** Insert a key into the heap. */
    void pushHeap(const Key &key);
    /** Fill the root's hole with `key`, sifting it down. */
    void siftDown(const Key &key);
    /** Take the earliest event off the queue and run it in place. */
    void executeTop();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t peakSize_ = 0;
    /** Pending events, in the rings and the heap. */
    std::uint64_t pending_ = 0;

    /** Ring heads and stray keys. */
    std::vector<Key> heap_;
    Ring rings_[kRings];
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
