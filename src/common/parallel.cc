#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"

namespace rif {

namespace {

/** True while this thread executes a parallelFor body. */
thread_local bool t_inParallel = false;

constexpr int kMaxContextHooks = 8;
TaskContextHooks g_ctx_hooks[kMaxContextHooks];
std::atomic<int> g_ctx_hook_count{0};
std::mutex g_ctx_hook_mutex;

/** Submitting-thread context values snapshotted at job publish. */
struct CapturedContexts
{
    void *vals[kMaxContextHooks];
    int count = 0;
};

CapturedContexts
captureTaskContexts()
{
    CapturedContexts c;
    c.count = g_ctx_hook_count.load(std::memory_order_acquire);
    for (int i = 0; i < c.count; ++i)
        c.vals[i] = g_ctx_hooks[i].capture();
    return c;
}

/** setGlobalThreadCount override; 0 means "use RIF_THREADS / hardware". */
int g_thread_override = 0;

constexpr int kMaxThreads = 256;

int
defaultThreadCount()
{
    if (const char *env = std::getenv("RIF_THREADS")) {
        char *end = nullptr;
        const long n = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && n > 0) {
            if (n <= kMaxThreads)
                return static_cast<int>(n);
            warn("RIF_THREADS value '", env, "' exceeds the maximum of ",
                 kMaxThreads, "; using ", kMaxThreads);
            return kMaxThreads;
        }
        warn("ignoring invalid RIF_THREADS value '", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/**
 * The one pool implementation: a persistent team of members parked on
 * a condition variable between jobs. Under `mutex_`, the caller
 * publishes the job, sets `remaining_` to the number of other members
 * and bumps `generation_`, then wakes them all; each member runs its
 * share and counts itself out under the same mutex, and the last one
 * wakes the caller. Shutdown is one more generation with `stopping_`
 * set.
 *
 * Every member (the caller is member 0) pulls index chunks from one
 * atomic cursor until the job drains; members with an id at or above
 * the job size have nothing to pull and skip the body. Callers on
 * different threads that share one team are serialized by
 * `dispatchMutex_`, which only the dispatch path takes.
 */
class WorkerTeam
{
  public:
    explicit WorkerTeam(int members) : members_(members)
    {
        RIF_ASSERT(members >= 1);
        for (int m = 1; m < members_; ++m)
            threads_.emplace_back([this, m] { memberLoop(m); });
    }

    ~WorkerTeam()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
            ++generation_;
        }
        wakeCv_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    WorkerTeam(const WorkerTeam &) = delete;
    WorkerTeam &operator=(const WorkerTeam &) = delete;

    int members() const { return members_; }

    /**
     * Run fn(i, member) for every i in [0, n) across all members. Only
     * for a team of two or more and a job of two or more indices that
     * is not nested in another job's body.
     */
    void
    run(std::size_t n, const std::function<void(std::size_t, int)> &fn)
    {
        std::lock_guard<std::mutex> serial(dispatchMutex_);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job_ = &fn;
            jobSize_ = n;
            // Chunked index handout amortizes the atomic for cheap
            // bodies while keeping tail imbalance small.
            chunk_ = std::max<std::size_t>(
                1, n / (static_cast<std::size_t>(members_) * 8));
            cursor_.store(0, std::memory_order_relaxed);
            ctx_ = captureTaskContexts();
            error_ = nullptr;
            remaining_ = members_ - 1;
            ++generation_;
        }
        wakeCv_.notify_all();
        runBody(0);
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [&] { return remaining_ == 0; });
        job_ = nullptr;
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    void
    runBody(int member)
    {
        if (static_cast<std::size_t>(member) >= jobSize_)
            return;
        // Member 0 is the submitting thread and already carries the
        // ambient contexts; everyone else adopts the captured ones for
        // the duration of the job.
        void *prev[kMaxContextHooks];
        const bool foreign = member != 0;
        if (foreign)
            for (int h = 0; h < ctx_.count; ++h)
                prev[h] = g_ctx_hooks[h].install(ctx_.vals[h]);
        t_inParallel = true;
        while (true) {
            const std::size_t begin =
                cursor_.fetch_add(chunk_, std::memory_order_relaxed);
            if (begin >= jobSize_)
                break;
            const std::size_t end = std::min(jobSize_, begin + chunk_);
            try {
                for (std::size_t i = begin; i < end; ++i)
                    (*job_)(i, member);
            } catch (...) {
                std::unique_lock<std::mutex> lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
                // Swallow the rest of the chunk; the cursor keeps
                // advancing so the job still drains.
            }
        }
        t_inParallel = false;
        if (foreign)
            for (int h = ctx_.count - 1; h >= 0; --h)
                g_ctx_hooks[h].restore(prev[h]);
    }

    void
    memberLoop(int member)
    {
        std::uint64_t seen = 0;
        while (true) {
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wakeCv_.wait(lock, [&] { return generation_ != seen; });
                seen = generation_;
                if (stopping_)
                    return;
            }
            runBody(member);
            std::lock_guard<std::mutex> lock(mutex_);
            if (--remaining_ == 0)
                doneCv_.notify_one();
        }
    }

    const int members_;

    /** Serializes callers sharing the team. */
    std::mutex dispatchMutex_;

    /**
     * Guards everything below. Members read the job fields without it,
     * but only after seeing `generation_` move under it, and the caller
     * rewrites them only after every member has counted itself out.
     */
    std::mutex mutex_;
    const std::function<void(std::size_t, int)> *job_ = nullptr;
    std::size_t jobSize_ = 0;
    std::size_t chunk_ = 1;
    std::atomic<std::size_t> cursor_{0};
    CapturedContexts ctx_;
    std::condition_variable wakeCv_;
    std::condition_variable doneCv_;
    std::uint64_t generation_ = 0;
    int remaining_ = 0;
    bool stopping_ = false;
    std::exception_ptr error_;

    /** Declared last: members use everything above. */
    std::vector<std::thread> threads_;
};

std::unique_ptr<WorkerTeam> g_pool;
std::mutex g_pool_mutex;

/** Arena team installed on this thread, if any (see ThreadArena). */
thread_local WorkerTeam *t_arena = nullptr;

WorkerTeam &
pool()
{
    if (t_arena)
        return *t_arena;
    std::unique_lock<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<WorkerTeam>(
            g_thread_override > 0 ? g_thread_override
                                  : defaultThreadCount());
    return *g_pool;
}

} // namespace

void
registerTaskContext(const TaskContextHooks &hooks)
{
    std::unique_lock<std::mutex> lock(g_ctx_hook_mutex);
    const int n = g_ctx_hook_count.load(std::memory_order_relaxed);
    RIF_ASSERT(n < kMaxContextHooks, "too many task contexts");
    g_ctx_hooks[n] = hooks;
    g_ctx_hook_count.store(n + 1, std::memory_order_release);
}

int
globalThreadCount()
{
    return pool().members();
}

int
configuredThreadCount()
{
    std::unique_lock<std::mutex> lock(g_pool_mutex);
    return g_thread_override > 0 ? g_thread_override
                                 : defaultThreadCount();
}

void
setGlobalThreadCount(int n)
{
    std::unique_lock<std::mutex> lock(g_pool_mutex);
    g_pool.reset();
    g_thread_override = n > 0 ? std::min(n, kMaxThreads) : 0;
    if (g_thread_override > 0)
        g_pool = std::make_unique<WorkerTeam>(g_thread_override);
}

struct ThreadArena::Impl
{
    explicit Impl(int threads)
        : team(threads), prev(t_arena)
    {
        t_arena = &team;
    }
    ~Impl() { t_arena = prev; }

    WorkerTeam team;
    WorkerTeam *prev;
};

ThreadArena::ThreadArena(int threads)
    : impl_(std::make_unique<Impl>(
          std::max(1, std::min(threads, kMaxThreads))))
{
}

ThreadArena::~ThreadArena() = default;

int
ThreadArena::threadCount() const
{
    return impl_->team.members();
}

void
parallelForWorker(std::size_t n,
                  const std::function<void(std::size_t, int)> &fn)
{
    // A nested call (a body that itself fans out) runs inline: its
    // team is busy with the enclosing job.
    WorkerTeam *team = n > 1 && !t_inParallel ? &pool() : nullptr;
    if (!team || team->members() == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i, 0);
        return;
    }
    team->run(n, fn);
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    parallelForWorker(n, [&fn](std::size_t i, int) { fn(i); });
}

std::vector<Rng>
forkStreams(Rng &parent, std::size_t n)
{
    std::vector<Rng> streams;
    streams.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        streams.push_back(parent.fork());
    return streams;
}

std::vector<Rng>
forkStreams(std::uint64_t seed, std::size_t n)
{
    Rng parent(seed);
    return forkStreams(parent, n);
}

} // namespace rif
