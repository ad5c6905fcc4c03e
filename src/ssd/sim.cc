#include "ssd/sim.h"

#include <algorithm>

#include "common/logging.h"

namespace rif {
namespace ssd {

void
Simulator::growSlab()
{
    chunks_.push_back(std::make_unique<Action[]>(kChunkSlots));
    Action *chunk = chunks_.back().get();
    // Listed backwards so the chunk's slots are handed out in order.
    for (std::size_t i = kChunkSlots; i-- > 0;)
        freeSlots_.push_back(chunk + i);
}

void
Simulator::growRing(Ring &ring)
{
    // Unroll the buffer into twice the room (a power of two).
    std::vector<Key> grown(std::max<std::size_t>(16, 2 * ring.keys.size()));
    for (std::size_t i = 0; i < ring.size; ++i)
        grown[i] = ring.keys[(ring.head + i) & (ring.keys.size() - 1)];
    ring.keys.swap(grown);
    ring.head = 0;
}

std::uint32_t
Simulator::ringFor(Tick delay)
{
    if (delay == 0)
        return 0;
    // Two choices among rings 1..8: bits 45..47 of a Fibonacci hash,
    // then bits 40..42. These bits give the drive's five hot fixed
    // delays at the default timing (tEccMin 1 000, tDmaPage 13 000,
    // tR + tPred 42 500, 122 500 and tProg 400 000 ticks) five
    // different first choices, so none of them waits for another's
    // ring to drain.
    const std::uint64_t h = delay * 0x9E3779B97F4A7C15ull;
    const auto a = static_cast<std::uint32_t>(1 + ((h >> 45) & 7));
    const auto b = static_cast<std::uint32_t>(1 + ((h >> 40) & 7));
    if (rings_[a].delay == delay)
        return a;
    if (rings_[b].delay == delay)
        return b;
    // Only an empty ring may rebind: a ring's keys share one delay,
    // which is what keeps it sorted.
    for (const std::uint32_t r : {a, b}) {
        if (rings_[r].size == 0) {
            rings_[r].delay = delay;
            return r;
        }
    }
    return kStray;
}

void
Simulator::enqueue(Tick when, Action *slot)
{
    RIF_ASSERT(when >= now_, "event scheduled in the past");
    // A push can only lower a cached bound; the lowered bound is exact
    // iff it lands in the window. An invalid cache stays invalid.
    if (cacheValid_ && when < cacheTick_) {
        cacheTick_ = when;
        cacheExact_ = when - windowBase_ < kWindowTicks;
    }

    const Key key{when, nextSeq_++, slot, ringFor(when - now_)};
    if (key.ring == kStray) {
        pushHeap(key);
    } else {
        // The clock never goes back and seq only grows, so the key is
        // the ring's latest; only a ring's head sits in the heap.
        Ring &ring = rings_[key.ring];
        if (ring.size == ring.keys.size())
            growRing(ring);
        ring.keys[(ring.head + ring.size) & (ring.keys.size() - 1)] = key;
        if (ring.size++ == 0)
            pushHeap(key);
    }
    if (++pending_ > peakSize_)
        peakSize_ = pending_;
}

void
Simulator::pushHeap(const Key &key)
{
    // Sift up: move parents down into the hole, then drop the key in.
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
}

Tick
Simulator::bound(bool &exact)
{
    if (!cacheValid_) {
        const Tick m = earliest();
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
Simulator::siftDown(const Key &key)
{
    // Full families pick their least child as a two-round tournament.
    static_assert(kArity == 4, "the tournament below is 4-way");
    Key *h = heap_.data();
    const std::size_t n = heap_.size();
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
        if (!before(h[child], key))
            break;
        h[hole] = h[child];
        hole = child;
    }
    h[hole] = key;
}

void
Simulator::executeTop()
{
    const Key top = heap_.front();
    now_ = top.when;
    bool replaced = false;
    if (top.ring != kStray) {
        Ring &ring = rings_[top.ring];
        ring.head = (ring.head + 1) & (ring.keys.size() - 1);
        // The ring's next key takes its head's place in the heap.
        if (--ring.size != 0) {
            siftDown(ring.keys[ring.head]);
            replaced = true;
        }
    }
    if (!replaced) {
        const Key last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(last);
    }
    --pending_;
    ++executed_;
    cacheValid_ = false;
    // Run in place: the slot stays off the free list until the action
    // returns, and chunks never move, so the events it schedules can
    // neither reuse nor relocate it.
    Action *action = top.action;
    (*action)();
    action->reset();
    freeSlots_.push_back(action);
}

Tick
Simulator::run()
{
    return run(~std::uint64_t(0));
}

Tick
Simulator::run(std::uint64_t max_events)
{
    for (; max_events > 0 && !empty(); --max_events) {
        const Tick m = earliest();
        if (m - windowBase_ >= kWindowTicks)
            reposition(m);
        executeTop();
    }
    return now_;
}

Tick
Simulator::nextEventBound()
{
    if (empty())
        return ~Tick(0);
    bool exact;
    return bound(exact);
}

Tick
Simulator::runUntil(Tick limit)
{
    while (!empty()) {
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
            reposition(earliest());
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
