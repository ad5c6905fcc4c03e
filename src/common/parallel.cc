#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/parse.h"

namespace rif {

namespace {

/** This thread's member id; 0 on a thread outside the team. */
thread_local int t_member = 0;

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
        const auto n = parseNumber<long long>(env);
        if (n && *n > 0) {
            if (*n <= kMaxThreads)
                return static_cast<int>(*n);
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
 * One open parallelFor. It lives on its caller's stack from publish
 * until its caller has closed it and every helper has counted out.
 */
struct Job
{
    const std::function<void(std::size_t, int)> *body;
    std::size_t size;
    std::size_t chunk;
    std::atomic<std::size_t> cursor{0};
    CapturedContexts ctx;
    /** The job whose body published this one; outlives it. */
    const Job *parent;
    int depth;
    /** Threads other than the caller inside runChunks (under mutex_). */
    int helpers = 0;
    /** First exception of any body (under mutex_). */
    std::exception_ptr error;

    bool
    drained() const
    {
        return cursor.load(std::memory_order_relaxed) >= size;
    }

    bool
    nestedIn(const Job *ancestor) const
    {
        for (const Job *p = parent; p; p = p->parent)
            if (p == ancestor)
                return true;
        return false;
    }
};

/** The job whose chunk this thread is executing, if any. */
thread_local const Job *t_job = nullptr;

/**
 * The one pool implementation: a persistent team of members parked on
 * one condition variable. Under `mutex_`, a caller adds its job to
 * `open_` and wakes the team; members take the deepest open job that
 * has chunks left, pull index chunks from its atomic cursor, and count
 * out under the mutex. A caller runs its own chunks, closes the job
 * (no new helper can join) and waits for its helpers, meanwhile
 * helping only jobs nested inside its own. A helper leaves a job after
 * a chunk when a deeper one has opened. Every job can finish on its
 * caller alone, so nesting cannot deadlock.
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
        }
        cv_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    WorkerTeam(const WorkerTeam &) = delete;
    WorkerTeam &operator=(const WorkerTeam &) = delete;

    int members() const { return members_; }

    /** Run fn(i, worker) for every i in [0, n) across the team. */
    void
    run(std::size_t n, const std::function<void(std::size_t, int)> &fn)
    {
        // Chunked index handout amortizes the atomic for cheap bodies
        // while keeping tail imbalance small.
        Job job{&fn, n,
                std::max<std::size_t>(
                    1, n / (static_cast<std::size_t>(members_) * 8)),
                {}, captureTaskContexts(), t_job,
                t_job ? t_job->depth + 1 : 1, 0, nullptr};
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_.push_back(&job);
            if (job.depth > deepest_.load(std::memory_order_relaxed))
                deepest_.store(job.depth, std::memory_order_relaxed);
        }
        cv_.notify_all();
        runChunks(job, false);

        std::unique_lock<std::mutex> lock(mutex_);
        open_.erase(std::find(open_.begin(), open_.end(), &job));
        int deepest = 0;
        for (const Job *j : open_)
            deepest = std::max(deepest, j->depth);
        deepest_.store(deepest, std::memory_order_relaxed);
        while (job.helpers > 0) {
            if (Job *nested = pick(&job))
                help(*nested, lock);
            else
                cv_.wait(lock);
        }
        if (job.error)
            std::rethrow_exception(job.error);
    }

  private:
    /**
     * The deepest open job with chunks left, nested inside `within`
     * when given. Caller holds mutex_.
     */
    Job *
    pick(const Job *within) const
    {
        Job *best = nullptr;
        for (Job *j : open_)
            if (!j->drained() && (!best || j->depth > best->depth) &&
                (!within || j->nestedIn(within)))
                best = j;
        return best;
    }

    /** Run chunks of another thread's job; `lock` held around. */
    void
    help(Job &job, std::unique_lock<std::mutex> &lock)
    {
        ++job.helpers;
        lock.unlock();
        runChunks(job, true);
        lock.lock();
        if (--job.helpers == 0)
            cv_.notify_all();
    }

    void
    runChunks(Job &job, bool helper)
    {
        // The caller already carries the ambient contexts; a helper
        // adopts the captured ones while it works on the job.
        void *prev[kMaxContextHooks];
        if (helper)
            for (int h = 0; h < job.ctx.count; ++h)
                prev[h] = g_ctx_hooks[h].install(job.ctx.vals[h]);
        const Job *outer = t_job;
        t_job = &job;
        while (true) {
            const std::size_t begin =
                job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
            if (begin >= job.size)
                break;
            const std::size_t end = std::min(job.size, begin + job.chunk);
            try {
                for (std::size_t i = begin; i < end; ++i)
                    (*job.body)(i, t_member);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!job.error)
                    job.error = std::current_exception();
                // Swallow the rest of the chunk; the cursor keeps
                // advancing so the job still drains.
            }
            if (helper &&
                deepest_.load(std::memory_order_relaxed) > job.depth)
                break;
        }
        t_job = outer;
        if (helper)
            for (int h = job.ctx.count - 1; h >= 0; --h)
                g_ctx_hooks[h].restore(prev[h]);
    }

    void
    memberLoop(int member)
    {
        t_member = member;
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stopping_) {
            if (Job *job = pick(nullptr))
                help(*job, lock);
            else
                cv_.wait(lock);
        }
    }

    const int members_;

    /** Guards `open_`, `stopping_` and every job's helpers / error. */
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Job *> open_;
    /** Deepest depth in `open_`; written under mutex_. */
    std::atomic<int> deepest_{0};
    bool stopping_ = false;

    /** Declared last: members use everything above. */
    std::vector<std::thread> threads_;
};

std::unique_ptr<WorkerTeam> g_pool;
std::mutex g_pool_mutex;

WorkerTeam &
pool()
{
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

void
setGlobalThreadCount(int n)
{
    std::unique_lock<std::mutex> lock(g_pool_mutex);
    g_pool.reset();
    g_thread_override = n > 0 ? std::min(n, kMaxThreads) : 0;
    if (g_thread_override > 0)
        g_pool = std::make_unique<WorkerTeam>(g_thread_override);
}

void
parallelForWorker(std::size_t n,
                  const std::function<void(std::size_t, int)> &fn)
{
    if (n > 1) {
        WorkerTeam &team = pool();
        if (team.members() > 1) {
            team.run(n, fn);
            return;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        fn(i, t_member);
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
