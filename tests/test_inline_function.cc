/**
 * @file
 * Tests of the small-buffer-optimized callable used by the event
 * kernel: inline vs heap storage, move-only captures, destruction
 * accounting, and the trivial-memcpy move path.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

#include "common/inline_function.h"

namespace rif {
namespace {

TEST(InlineFunction, InvokesWithArgumentsAndReturn)
{
    InlineFunction<int(int, int)> f = [](int a, int b) { return a + b; };
    EXPECT_TRUE(static_cast<bool>(f));
    EXPECT_EQ(f(2, 3), 5);
}

TEST(InlineFunction, DefaultConstructedIsEmpty)
{
    InlineFunction<void()> f;
    EXPECT_FALSE(static_cast<bool>(f));
    InlineFunction<void()> g = nullptr;
    EXPECT_FALSE(static_cast<bool>(g));
}

TEST(InlineFunction, MoveTransfersOwnership)
{
    int hits = 0;
    InlineFunction<void()> f = [&hits] { ++hits; };
    InlineFunction<void()> g = std::move(f);
    EXPECT_FALSE(static_cast<bool>(f));
    ASSERT_TRUE(static_cast<bool>(g));
    g();
    EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, MoveOnlyCaptureWorks)
{
    auto p = std::make_unique<int>(41);
    InlineFunction<int()> f = [p = std::move(p)] { return *p + 1; };
    InlineFunction<int()> g = std::move(f);
    EXPECT_EQ(g(), 42);
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeap)
{
    // 128 bytes of capture exceeds the 48-byte inline buffer; the
    // callable must still work (single heap allocation).
    std::array<std::uint64_t, 16> big{};
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = i + 1;
    InlineFunction<std::uint64_t()> f = [big] {
        std::uint64_t sum = 0;
        for (auto v : big)
            sum += v;
        return sum;
    };
    InlineFunction<std::uint64_t()> g = std::move(f);
    EXPECT_EQ(g(), 136u);
}

struct DtorCounter
{
    int *count;
    explicit DtorCounter(int *c) : count(c) {}
    DtorCounter(DtorCounter &&o) noexcept : count(o.count)
    {
        o.count = nullptr;
    }
    DtorCounter(const DtorCounter &) = delete;
    ~DtorCounter()
    {
        if (count != nullptr)
            ++*count;
    }
};

TEST(InlineFunction, DestroysCaptureExactlyOnce)
{
    int destroyed = 0;
    {
        InlineFunction<void()> f = [c = DtorCounter(&destroyed)] {};
        InlineFunction<void()> g = std::move(f);
        g();
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, ReassignmentReplacesCallable)
{
    int destroyed = 0;
    InlineFunction<int()> f = [c = DtorCounter(&destroyed)] { return 1; };
    f = [] { return 2; };
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(f(), 2);
    f = nullptr;
    EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunction, TriviallyCopyableCaptureSurvivesManyMoves)
{
    // The hot path: pointer/int captures move by raw memcpy. Chain
    // several moves (as event-slab reallocation does) and
    // confirm the closure still sees its captures.
    int target = 0;
    InlineFunction<void(int)> a = [&target](int v) { target = v; };
    InlineFunction<void(int)> b = std::move(a);
    InlineFunction<void(int)> c = std::move(b);
    InlineFunction<void(int)> d;
    d = std::move(c);
    d(77);
    EXPECT_EQ(target, 77);
}

} // namespace
} // namespace rif
