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
 *    bytes) and the pending-event set is a two-level calendar queue
 *    (timing wheel) tuned for the model's short-horizon scheduling:
 *    a per-tick level covering ~16 us (DMA, decode and zero-delay
 *    events land here at O(1)) cascading from a coarse level covering
 *    ~16.8 ms (sense, program, erase), with a binary-heap overflow for
 *    anything farther out. Same-tick FIFO order is preserved exactly:
 *    per-tick buckets are appended in schedule order and cascades
 *    replay events in (when, seq) order before any later schedule can
 *    append. One drive runs on one kernel on one thread; parallelism
 *    lives a level up, where a fleet runs whole drives concurrently.
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

/** Event-driven simulator kernel (calendar-queue implementation). */
class Simulator
{
  public:
    using Action = InlineFunction<void()>;

    Simulator();

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
     * pure clock advance — no event pops, no window refill, no change
     * to any future nextEventBound() value (the loop breaks on the
     * bound *before* reorganizing windows). The fleet's idle-lane skip
     * relies on exactly this: not invoking runUntil on a drive whose
     * bound lies past the horizon leaves the drive in a state
     * indistinguishable from having invoked it, because the clock is
     * only ever observed while an event executes.
     */
    Tick runUntil(Tick limit);

    /**
     * Earliest pending tick, or a lower bound no later than it (window
     * bases count; the fabric horizon only needs a conservative bound
     * and runUntil repositions windows as it goes). ~Tick(0) when the
     * queue is empty.
     */
    Tick nextEventBound();

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** High-water mark of pending events (queue occupancy). */
    std::uint64_t peakQueueSize() const { return peakSize_; }

    bool empty() const { return size_ == 0; }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Action action;
    };
    /** Min-heap order for the overflow level: earliest (when, seq). */
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

    // Level 0: one slot per tick, 16384 ticks (~16 us of horizon).
    static constexpr std::size_t kL0Bits = 14;
    static constexpr std::size_t kL0Slots = std::size_t(1) << kL0Bits;
    // Level 1: one slot per L0 span, 1024 slots (~16.8 ms of horizon).
    static constexpr std::size_t kL1Bits = 10;
    static constexpr std::size_t kL1Slots = std::size_t(1) << kL1Bits;
    static constexpr Tick kL1SlotTicks = Tick(kL0Slots);
    static constexpr Tick kL1Span = Tick(kL0Slots) * Tick(kL1Slots);

    static constexpr std::size_t kNoSlot = ~std::size_t(0);

    static std::size_t findSetBit(const std::vector<std::uint64_t> &bits,
                                  std::size_t from, std::size_t limit);

    void pushL0(Event ev);
    void pushL1(Event ev);
    /**
     * Reposition the L0 window on the next pending work: cascade the
     * next occupied L1 slot, migrating from the overflow heap first
     * when the L1 window itself is exhausted. Requires l0Count_ == 0.
     */
    void refill();
    /**
     * Earliest pending tick. `exact` is true when the value is a real
     * event tick inside the L0 window (drainSlot can execute it);
     * false when it is a lower bound and refill() must reposition the
     * window first. Cached: pushes keep the hint up to date,
     * drainSlot/refill invalidate it, so a fleet's nextEventBound()
     * followed by runUntil() scans the bitmaps once.
     */
    Tick earliest(bool &exact);
    /** Execute the events of one L0 slot in FIFO order. */
    void drainSlot(std::size_t slot, std::uint64_t &budget);

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t size_ = 0;
    std::uint64_t peakSize_ = 0;

    /** First tick of the L0 window (multiple of kL0Slots). */
    Tick l0Base_ = 0;
    /** First tick of the L1 window (multiple of kL1Span). */
    Tick l1Base_ = 0;
    /** Next L0 slot index to examine. */
    std::size_t l0Cursor_ = 0;
    /** Next L1 slot index to cascade. */
    std::size_t l1Cursor_ = 0;
    std::uint64_t l0Count_ = 0;
    std::uint64_t l1Count_ = 0;

    std::vector<std::vector<Event>> l0_;
    std::vector<std::vector<Event>> l1_;
    std::vector<std::uint64_t> l0Bits_;
    std::vector<std::uint64_t> l1Bits_;
    /** Events beyond the L1 window, as a (when, seq) min-heap. */
    std::vector<Event> overflow_;

    /** Cached earliest() result (see above). */
    Tick hintTick_ = 0;
    bool hintExact_ = false;
    bool hintValid_ = false;
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
