#include "ssd/sim.h"

#include <algorithm>

#include "common/logging.h"

namespace rif {
namespace ssd {

void
Simulator::schedule(Tick delay, Action action)
{
    scheduleAt(now_ + delay, std::move(action));
}

void
Simulator::scheduleAt(Tick when, Action action)
{
    RIF_ASSERT(when >= now_, "event scheduled in the past");
    // A push can only lower a cached bound; the lowered bound is exact
    // iff it lands in the window. An invalid cache stays invalid.
    if (cacheValid_ && when < cacheTick_) {
        cacheTick_ = when;
        cacheExact_ = when - windowBase_ < kWindowTicks;
    }

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        actions_[slot] = std::move(action);
    } else {
        slot = static_cast<std::uint32_t>(actions_.size());
        actions_.push_back(std::move(action));
    }

    // Sift up: move parents down into the hole, then drop the key in.
    const Key key{when, nextSeq_++, slot};
    std::size_t hole = heap_.size();
    heap_.push_back(key);
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / kArity;
        if (!before(key, heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = key;
    if (heap_.size() > peakSize_)
        peakSize_ = heap_.size();
}

Tick
Simulator::bound(bool &exact)
{
    if (!cacheValid_) {
        const Tick m = heap_.front().when;
        cacheExact_ = m - windowBase_ < kWindowTicks;
        if (cacheExact_ || m - spanBase_ >= kSpanTicks)
            cacheTick_ = m;
        else
            cacheTick_ = m / kWindowTicks * kWindowTicks;
        cacheValid_ = true;
    }
    exact = cacheExact_;
    return cacheTick_;
}

void
Simulator::reposition(Tick m)
{
    windowBase_ = m / kWindowTicks * kWindowTicks;
    spanBase_ = m / kSpanTicks * kSpanTicks;
    cacheValid_ = false;
}

void
Simulator::executeTop()
{
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
        // Sift the former last key down from the root. Full families
        // pick their least child as a two-round tournament.
        static_assert(kArity == 4, "the tournament below is 4-way");
        Key *h = heap_.data();
        std::size_t hole = 0;
        while (true) {
            const std::size_t first = hole * kArity + 1;
            std::size_t child;
            if (first + kArity <= n) {
                const std::size_t a = first + before(h[first + 1], h[first]);
                const std::size_t b =
                    first + 2 + before(h[first + 3], h[first + 2]);
                child = before(h[b], h[a]) ? b : a;
            } else if (first < n) {
                child = first;
                for (std::size_t c = first + 1; c < n; ++c) {
                    if (before(h[c], h[child]))
                        child = c;
                }
            } else {
                break;
            }
            if (!before(h[child], last))
                break;
            h[hole] = h[child];
            hole = child;
        }
        heap_[hole] = last;
    }

    now_ = top.when;
    ++executed_;
    cacheValid_ = false;
    // Move the action out before running it: it may schedule events,
    // which can reuse or reallocate the slab.
    Action act = std::move(actions_[top.slot]);
    freeSlots_.push_back(top.slot);
    act();
}

Tick
Simulator::run()
{
    return run(~std::uint64_t(0));
}

Tick
Simulator::run(std::uint64_t max_events)
{
    for (; max_events > 0 && !heap_.empty(); --max_events) {
        const Tick m = heap_.front().when;
        if (m - windowBase_ >= kWindowTicks)
            reposition(m);
        executeTop();
    }
    return now_;
}

Tick
Simulator::nextEventBound()
{
    if (heap_.empty())
        return ~Tick(0);
    bool exact;
    return bound(exact);
}

Tick
Simulator::runUntil(Tick limit)
{
    while (!heap_.empty()) {
        bool exact;
        const Tick e = bound(exact);
        // `e` is a lower bound when inexact, so e > limit means the
        // true earliest event is beyond the horizon either way.
        // Breaking *before* repositioning is load-bearing: an
        // out-of-horizon runUntil must leave every future
        // nextEventBound() value untouched (the quiescence contract in
        // sim.h that lets the fleet skip idle lanes).
        if (e > limit)
            break;
        if (exact)
            executeTop();
        else
            reposition(heap_.front().when);
    }
    if (now_ < limit)
        now_ = limit;
    return now_;
}

void
ReferenceSimulator::schedule(Tick delay, Action action)
{
    scheduleAt(now_ + delay, std::move(action));
}

void
ReferenceSimulator::scheduleAt(Tick when, Action action)
{
    RIF_ASSERT(when >= now_, "event scheduled in the past");
    queue_.push(Event{when, nextSeq_++, std::move(action)});
}

Tick
ReferenceSimulator::run()
{
    return run(~std::uint64_t(0));
}

Tick
ReferenceSimulator::run(std::uint64_t max_events)
{
    std::uint64_t budget = max_events;
    while (!queue_.empty() && budget-- > 0) {
        // Copy out before pop: the action may schedule more events.
        Event ev = queue_.top();
        queue_.pop();
        now_ = ev.when;
        ++executed_;
        ev.action();
    }
    return now_;
}

} // namespace ssd
} // namespace rif
