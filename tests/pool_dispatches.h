/**
 * @file
 * Test probe that counts worker-pool jobs through a TaskContextHooks
 * capture, for tests that pin how many jobs a code path publishes.
 */

#ifndef RIF_TESTS_POOL_DISPATCHES_H
#define RIF_TESTS_POOL_DISPATCHES_H

#include <atomic>
#include <cstdint>

#include "common/parallel.h"

namespace rif_test_pool {

/** Pool dispatches seen so far: a TaskContextHooks capture() runs
 *  once per job handed to pool members (never for inline jobs). The
 *  first call registers the hook. */
inline std::uint64_t
poolDispatches()
{
    static std::atomic<std::uint64_t> dispatches{0};
    static const bool registered = [] {
        rif::registerTaskContext(rif::TaskContextHooks{
            [] {
                dispatches.fetch_add(1, std::memory_order_relaxed);
                return static_cast<void *>(nullptr);
            },
            [](void *) { return static_cast<void *>(nullptr); },
            [](void *) {}});
        return true;
    }();
    (void)registered;
    return dispatches.load(std::memory_order_relaxed);
}

} // namespace rif_test_pool

#endif // RIF_TESTS_POOL_DISPATCHES_H
