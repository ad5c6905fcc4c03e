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
 * The pool is a persistent team of members parked on a condition
 * variable between jobs: a parallelFor publishes the job under one
 * mutex and wakes them, every member (the caller is member 0) pulls
 * index chunks from one atomic cursor, and the last member to finish
 * wakes the caller. A job runs inline on the caller when the pool has
 * one member, when it has at most one index, or when it is issued from
 * inside another job's body.
 *
 * The pool size defaults to the hardware concurrency and can be
 * overridden with the RIF_THREADS environment variable (a positive
 * integer; anything else warns and falls back to the hardware count,
 * values above 256 warn and clamp) or setGlobalThreadCount() (used by
 * the determinism tests).
 */

#ifndef RIF_COMMON_PARALLEL_H
#define RIF_COMMON_PARALLEL_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace rif {

/**
 * Number of threads parallelFor bodies execute on from the calling
 * thread (including it): the active ThreadArena's budget if one is
 * installed on this thread, otherwise the global pool size. Resolution
 * order for the global size: explicit setGlobalThreadCount() override,
 * then RIF_THREADS, then std::thread::hardware_concurrency().
 */
int globalThreadCount();

/**
 * The configured global thread budget — override > RIF_THREADS >
 * hardware — without instantiating the pool and ignoring any arena on
 * the calling thread. The scenario scheduler divides this among its
 * workers so scenario-level x intra-scenario parallelism never
 * oversubscribes the machine.
 */
int configuredThreadCount();

/**
 * Override the global pool size; n <= 0 resets to the RIF_THREADS /
 * hardware default. Recreates the pool — must not be called while a
 * parallelFor is running.
 */
void setGlobalThreadCount(int n);

/**
 * Run fn(i) for every i in [0, n) across the global pool (or the
 * calling thread's ThreadArena) and block until all complete. Bodies
 * must be data-race free with each other; write outputs to per-index
 * slots for determinism. Exceptions from bodies are rethrown (first one
 * wins) after the loop drains. Threads that share one pool may call
 * concurrently: the pool runs their jobs one at a time.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn);

/**
 * parallelFor variant passing the executing worker id in
 * [0, globalThreadCount()) so callers can index per-worker scratch
 * (e.g. one DecodeWorkspace per worker). Worker 0 is the calling thread.
 */
void parallelForWorker(
    std::size_t n, const std::function<void(std::size_t, int)> &fn);

/**
 * RAII private thread pool for the calling thread: a team of its own,
 * the same implementation as the global pool. While alive, every
 * parallelFor / parallelForWorker issued from this thread runs on the
 * arena's own members instead of the global pool, so several threads
 * can each drive their own parallel region concurrently (on the shared
 * global pool their jobs would run one at a time). The scenario
 * scheduler gives each of its workers an arena of budget
 * max(1, configuredThreadCount() / jobs).
 *
 * Arenas change only which threads execute bodies, never the index
 * decomposition, so results stay bit-identical. Not nestable on one
 * thread (the inner parallelFor of a nested region already runs inline).
 */
class ThreadArena
{
  public:
    explicit ThreadArena(int threads);
    ~ThreadArena();
    ThreadArena(const ThreadArena &) = delete;
    ThreadArena &operator=(const ThreadArena &) = delete;

    int threadCount() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Thread-local ambient context propagated into parallel regions.
 *
 * Subsystems that stash per-thread state in `thread_local` variables
 * (the active metrics collector, the active trace recorder) register a
 * hook triple once at startup. When a parallelFor publishes a job, the
 * pool calls capture() on the submitting thread; every *other* member
 * that participates wraps its share of the job in install(captured) /
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
