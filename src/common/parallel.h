/**
 * @file
 * The worker runtime: one fixed thread pool and a deterministic
 * parallel-for, shared by the Monte-Carlo harnesses, the threaded drive
 * sweeps and the fleet's parallel preconditioning. Design rules that keep
 * every sweep bit-identical at any thread count:
 *
 *  - parallelFor(n, fn) runs fn(i) for i in [0, n) in an unspecified
 *    order; callers write results into per-index slots and reduce them
 *    serially afterwards.
 *  - Randomized work derives one Rng stream per index *before* the
 *    parallel region (forkStreams), so stream i is the same no matter
 *    which worker executes it.
 *  - Per-worker scratch (decoder workspaces) is indexed by the worker id
 *    passed to the parallelForWorker callback; scratch affects speed,
 *    never results.
 *
 * The pool is one persistent team of members parked on a condition
 * variable. A parallelFor publishes a job record from its caller's
 * stack, and several jobs may be open at once: a parallelFor issued
 * inside a body (a scenario's drive sweep, a sweep's fleet
 * preconditioning) joins the same team. Idle members take chunks from
 * the deepest open job. A caller runs its own chunks, then, while its
 * helpers finish, only chunks of jobs nested inside its own. So every
 * thread budget is the one RIF_THREADS budget, and no thread enters a
 * job twice. A job runs inline on the caller when the pool has one
 * member or the job has at most one index.
 *
 * The pool size defaults to the hardware concurrency and can be
 * overridden with the RIF_THREADS environment variable (plain decimal
 * digits, parsed by parseNumber; anything else warns and falls back to
 * the hardware count, values above 256 warn and clamp) or
 * setGlobalThreadCount() (used by the determinism tests).
 */

#ifndef RIF_COMMON_PARALLEL_H
#define RIF_COMMON_PARALLEL_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace rif {

/**
 * Number of threads parallelFor bodies execute on (including the
 * caller): the pool size. Resolution order: explicit
 * setGlobalThreadCount() override, then RIF_THREADS, then
 * std::thread::hardware_concurrency().
 */
int globalThreadCount();

/**
 * Override the global pool size; n <= 0 resets to the RIF_THREADS /
 * hardware default. Recreates the pool — must not be called while a
 * parallelFor is running.
 */
void setGlobalThreadCount(int n);

/**
 * Run fn(i) for every i in [0, n) across the global pool and block
 * until all complete. Bodies must be data-race free with each other;
 * write outputs to per-index slots for determinism. Exceptions from
 * bodies are rethrown (first one wins) after the loop drains. Bodies
 * may themselves call parallelFor, and threads may call concurrently:
 * every job shares the one team.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn);

/**
 * parallelFor variant passing the executing worker id in
 * [0, globalThreadCount()) so callers can index per-worker scratch
 * (e.g. one DecodeWorkspace per worker). The id is the executing
 * member's, or 0 on a thread outside the team (the one that called the
 * outermost parallelFor). No two threads run one job under the same id.
 */
void parallelForWorker(
    std::size_t n, const std::function<void(std::size_t, int)> &fn);

/**
 * Thread-local ambient context propagated into parallel regions.
 *
 * Subsystems that stash per-thread state in `thread_local` variables
 * (the active metrics collector, the active trace recorder) register a
 * hook triple once at startup. When a parallelFor publishes a job, the
 * pool calls capture() on the submitting thread; every *other* member
 * that runs chunks of the job wraps them in install(captured) /
 * restore(previous). The submitting thread already carries the context,
 * so it is left untouched. Hooks must be cheap (pointer copies) and
 * must not themselves start parallel regions.
 */
struct TaskContextHooks {
    /** Snapshot the submitting thread's context at job publish. */
    void *(*capture)();
    /** Install the captured context on a worker; returns the worker's
     *  previous context for restore(). */
    void *(*install)(void *captured);
    /** Restore the worker's previous context after the job drains. */
    void (*restore)(void *previous);
};

/**
 * Register an ambient context (at most 8, typically from static
 * initializers). Hooks are never unregistered; registration is
 * thread-safe and idempotent callers' responsibility.
 */
void registerTaskContext(const TaskContextHooks &hooks);

/**
 * Fork n independent, deterministic Rng streams from a parent generator.
 * Stream i depends only on the parent state and i — never on thread
 * count or scheduling — so handing stream i to the body of parallelFor
 * index i reproduces serial results exactly.
 */
std::vector<Rng> forkStreams(Rng &parent, std::size_t n);

/** forkStreams from a fresh generator seeded with `seed`. */
std::vector<Rng> forkStreams(std::uint64_t seed, std::size_t n);

} // namespace rif

#endif // RIF_COMMON_PARALLEL_H
