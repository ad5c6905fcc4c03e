#include "ssd/sim.h"

#include <algorithm>

#include "common/logging.h"

namespace rif {
namespace ssd {

Simulator::Simulator()
    : l0_(kL0Slots),
      l1_(kL1Slots),
      l0Bits_(kL0Slots / 64, 0),
      l1Bits_(kL1Slots / 64, 0)
{
}

void
Simulator::schedule(Tick delay, Action action)
{
    scheduleAt(now_ + delay, std::move(action));
}

void
Simulator::scheduleAt(Tick when, Action action)
{
    RIF_ASSERT(when >= now_, "event scheduled in the past");
    const std::uint64_t seq = nextSeq_++;
    ++size_;
    if (size_ > peakSize_)
        peakSize_ = size_;
    // Keep a valid cached earliest() current: a push can only lower
    // it, and the lowered hint is exact iff the push landed in the L0
    // window. An invalid hint stays invalid (the queue may hold
    // earlier events this push knows nothing about); earliest()
    // rescans then. L1/overflow events always lie at or beyond the L0
    // window's end, so an undercutting push below an inexact hint is
    // itself out-of-window — l0Count_ stays 0 and refill()'s
    // precondition holds whenever the hint is inexact.
    const bool undercut = hintValid_ && when < hintTick_;
    if (when < l0Base_ + Tick(kL0Slots)) {
        // Hot path: construct directly in the destination slot (one
        // action move instead of two through pushL0).
        const std::size_t slot = static_cast<std::size_t>(when - l0Base_);
        l0_[slot].emplace_back(when, seq, std::move(action));
        l0Bits_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
        ++l0Count_;
        if (slot < l0Cursor_)
            l0Cursor_ = slot;
        if (undercut) {
            hintTick_ = when;
            hintExact_ = true;
            hintValid_ = true;
        }
    } else {
        if (when < l1Base_ + kL1Span) {
            pushL1(Event{when, seq, std::move(action)});
        } else {
            overflow_.push_back(Event{when, seq, std::move(action)});
            std::push_heap(overflow_.begin(), overflow_.end(), Later{});
        }
        if (undercut) {
            hintTick_ = when;
            hintExact_ = false;
            hintValid_ = true;
        }
    }
}

void
Simulator::pushL0(Event ev)
{
    const std::size_t slot = static_cast<std::size_t>(ev.when - l0Base_);
    l0_[slot].push_back(std::move(ev));
    l0Bits_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
    ++l0Count_;
    // Scheduling at now() from outside run() can land exactly on the
    // just-drained slot, behind the scan cursor; pull it back so the
    // next scan sees the event.
    if (slot < l0Cursor_)
        l0Cursor_ = slot;
}

void
Simulator::pushL1(Event ev)
{
    const std::size_t slot =
        static_cast<std::size_t>((ev.when - l1Base_) >> kL0Bits);
    l1_[slot].push_back(std::move(ev));
    l1Bits_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
    ++l1Count_;
    if (slot < l1Cursor_)
        l1Cursor_ = slot;
}

std::size_t
Simulator::findSetBit(const std::vector<std::uint64_t> &bits,
                      std::size_t from, std::size_t limit)
{
    if (from >= limit)
        return kNoSlot;
    std::size_t word = from >> 6;
    std::uint64_t cur = bits[word] & (~std::uint64_t(0) << (from & 63));
    const std::size_t words = (limit + 63) >> 6;
    while (true) {
        if (cur != 0) {
            const std::size_t slot =
                (word << 6) +
                static_cast<std::size_t>(__builtin_ctzll(cur));
            return slot < limit ? slot : kNoSlot;
        }
        if (++word >= words)
            return kNoSlot;
        cur = bits[word];
    }
}

void
Simulator::refill()
{
    RIF_ASSERT(l0Count_ == 0);
    hintValid_ = false;
    while (true) {
        if (l1Count_ > 0) {
            const std::size_t slot =
                findSetBit(l1Bits_, l1Cursor_, kL1Slots);
            // Pending L1 events always lie at or ahead of the cursor:
            // slots behind it were cascaded and nothing schedules into
            // the past.
            RIF_ASSERT(slot != kNoSlot);
            l0Base_ = l1Base_ + Tick(slot) * kL1SlotTicks;
            l0Cursor_ = 0;
            l1Cursor_ = slot + 1;
            l1Bits_[slot >> 6] &=
                ~(std::uint64_t(1) << (slot & 63));
            auto &bucket = l1_[slot];
            l1Count_ -= bucket.size();
            // Cascade: scatter to exact-tick slots. Bucket order is
            // (when, seq)-consistent per tick (see scheduleAt /
            // overflow migration), so per-slot FIFO is preserved.
            for (auto &ev : bucket)
                pushL0(std::move(ev));
            bucket.clear();
            return;
        }
        if (!overflow_.empty()) {
            // Advance the L1 window to the lap of the earliest far
            // event and migrate everything inside the new window.
            // Heap pops come in (when, seq) order, so same-tick events
            // land in their L1 bucket in FIFO order.
            const Tick w = overflow_.front().when;
            l1Base_ = (w / kL1Span) * kL1Span;
            l1Cursor_ = 0;
            const Tick l1_end = l1Base_ + kL1Span;
            while (!overflow_.empty() &&
                   overflow_.front().when < l1_end) {
                std::pop_heap(overflow_.begin(), overflow_.end(),
                              Later{});
                Event ev = std::move(overflow_.back());
                overflow_.pop_back();
                pushL1(std::move(ev));
            }
            continue;
        }
        panic("refill with no pending events");
    }
}

Tick
Simulator::earliest(bool &exact)
{
    RIF_ASSERT(size_ != 0);
    if (hintValid_) {
        exact = hintExact_;
        return hintTick_;
    }
    if (l0Count_ > 0) {
        const std::size_t slot = findSetBit(l0Bits_, l0Cursor_, kL0Slots);
        RIF_ASSERT(slot != kNoSlot);
        hintTick_ = l0Base_ + Tick(slot);
        hintExact_ = true;
    } else if (l1Count_ > 0) {
        const std::size_t slot = findSetBit(l1Bits_, l1Cursor_, kL1Slots);
        RIF_ASSERT(slot != kNoSlot);
        // Lower bound: the slot's first tick, not the event's.
        hintTick_ = l1Base_ + Tick(slot) * kL1SlotTicks;
        hintExact_ = false;
    } else {
        // The heap top is the true minimum, but the window has to be
        // repositioned before drainSlot can execute it.
        hintTick_ = overflow_.front().when;
        hintExact_ = false;
    }
    hintValid_ = true;
    exact = hintExact_;
    return hintTick_;
}

void
Simulator::drainSlot(std::size_t slot, std::uint64_t &budget)
{
    auto &bucket = l0_[slot];
    // Every event in an L0 bucket carries the slot's tick, so the
    // clock and the executed/pending counters move once per slot, and
    // only the action leaves the bucket per event.
    now_ = l0Base_ + Tick(slot);
    std::size_t idx = 0;
    // Index-based iteration: an action may append same-tick events to
    // this bucket (zero-delay scheduling), possibly reallocating it.
    while (idx < bucket.size() && budget > 0) {
        Action act = std::move(bucket[idx].action);
        ++idx;
        --budget;
        act();
    }
    executed_ += idx;
    size_ -= idx;
    l0Count_ -= idx;
    hintValid_ = false;
    if (idx >= bucket.size()) {
        bucket.clear();
        l0Bits_[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
        l0Cursor_ = slot + 1;
    } else {
        // Watchdog budget ran out mid-slot: keep the unexecuted tail.
        bucket.erase(bucket.begin(),
                     bucket.begin() + static_cast<std::ptrdiff_t>(idx));
        l0Cursor_ = slot;
    }
}

Tick
Simulator::run()
{
    return run(~std::uint64_t(0));
}

Tick
Simulator::run(std::uint64_t max_events)
{
    std::uint64_t budget = max_events;
    while (size_ > 0 && budget > 0) {
        if (l0Count_ == 0) {
            refill();
            continue;
        }
        const std::size_t slot = findSetBit(l0Bits_, l0Cursor_, kL0Slots);
        if (slot == kNoSlot) {
            // L0 window exhausted but events remain further out.
            refill();
            continue;
        }
        drainSlot(slot, budget);
    }
    return now_;
}

Tick
Simulator::nextEventBound()
{
    if (size_ == 0)
        return ~Tick(0);
    bool exact;
    return earliest(exact);
}

Tick
Simulator::runUntil(Tick limit)
{
    std::uint64_t budget = ~std::uint64_t(0);
    while (size_ > 0) {
        bool exact;
        const Tick e = earliest(exact);
        // `e` is a lower bound when inexact, so e > limit means the
        // true earliest event is beyond the horizon either way.
        // Breaking *before* any refill is load-bearing: an
        // out-of-horizon runUntil must leave every future
        // nextEventBound() value untouched (the quiescence contract in
        // sim.h that lets the fleet skip idle lanes).
        if (e > limit)
            break;
        if (!exact) {
            refill();
            continue;
        }
        drainSlot(static_cast<std::size_t>(e - l0Base_), budget);
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
