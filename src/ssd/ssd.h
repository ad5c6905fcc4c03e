/**
 * @file
 * Top-level SSD model: wires channels, dies, ECC engines, the FTL and the
 * host link together and produces the statistics the paper's figures
 * are built from. The drive is a pure device: requests start through
 * submitIo(); the host side of a replay (sources, ArrivalPolicy, the
 * host.arrival.* surface) is a HostDriver (ssd/arrival.h) whose lane
 * is the drive's own simulator.
 */

#ifndef RIF_SSD_SSD_H
#define RIF_SSD_SSD_H

#include <memory>
#include <string>
#include <vector>

#include "common/inline_function.h"
#include "common/pool.h"
#include "odear/accuracy.h"
#include "ssd/arrival.h"
#include "ssd/devices.h"
#include "ssd/ftl.h"
#include "ssd/sim.h"
#include "trace/trace.h"

namespace rif {
namespace ssd {

/** A complete simulated SSD. */
class Ssd
{
  public:
    explicit Ssd(const SsdConfig &config);
    ~Ssd();

    Ssd(const Ssd &) = delete;
    Ssd &operator=(const Ssd &) = delete;

    /**
     * Replay a trace closed-loop (up to config.queueDepth outstanding
     * requests) until the source is exhausted and all requests retire.
     *
     * @return the collected statistics (bandwidth, latencies, channel
     *         usage, retry counters)
     */
    SsdStats run(trace::TraceSource &source)
    {
        return runMultiQueue({&source});
    }

    /**
     * Replay under an explicit injection policy (see ssd/arrival.h):
     * ClosedLoopArrival(config.queueDepth) reproduces run(source)
     * byte-for-byte; OpenLoopArrival injects at the records' arrival
     * ticks with a bounded host queue and drop accounting, running
     * until the source drains and every injected request retires.
     */
    SsdStats run(trace::TraceSource &source, ArrivalPolicy &policy)
    {
        return runMultiQueue({&source}, policy);
    }

    /**
     * Multi-queue replay: each source drives one host submission queue
     * with its own closed loop of config.queueDepth requests (the
     * multi-tenant mode of MQSim-class simulators). Sources should
     * occupy disjoint LBA partitions (see trace::OffsetTrace); the FTL
     * footprint is the maximum across queues and per-page coldness is
     * the OR of the tenants' predicates. Per-queue read latencies land
     * in SsdStats::queueReadLatencyUs.
     */
    SsdStats runMultiQueue(const std::vector<trace::TraceSource *> &sources)
    {
        ClosedLoopArrival closed(config_.queueDepth);
        return runMultiQueue(sources, closed);
    }

    /**
     * The one replay body: a HostDriver on this drive's simulator
     * whose start callback is submitIo, with one policy pacing every
     * queue. Preconditions, runs until the sources drain and every
     * request retires, then finishes like finishOpen().
     */
    SsdStats runMultiQueue(const std::vector<trace::TraceSource *> &sources,
                           ArrivalPolicy &policy);

    // ---- Externally driven (fabric) interface -----------------------
    //
    // A Fleet drives each drive from its own host lane: it
    // preconditions once, submits IOs at interconnect-arrival times,
    // advances the drive's kernel to successive synchronization
    // horizons, and finalizes when the fabric drains.

    /**
     * Precondition the FTL for `sources` (snapshot-cached) and size the
     * per-queue statistics. Call once before the first submitIo().
     */
    void prepareOpen(const std::vector<trace::TraceSource *> &sources);

    /**
     * Start one host request (drive-local page addressing) on host
     * submission queue `queue` at the current simulated time, its
     * latency measured from `issuedAt` (<= now). `onDone` fires inside
     * this drive's simulator with the completion tick when the request
     * fully retires, after the request's pool slot is released.
     */
    void submitIo(const trace::IoRecord &rec, int queue, Tick issuedAt,
                  InlineFunction<void(Tick)> onDone);

    /**
     * Advance this drive's kernel to `limit` (see Simulator::runUntil).
     * When nextEventBound() > limit the call is a pure clock advance
     * (the quiescence contract in sim.h), so a fabric round may skip
     * the drive entirely instead — the states are indistinguishable.
     */
    Tick runUntil(Tick limit) { return sim_.runUntil(limit); }

    /** Earliest pending tick (lower bound); ~Tick(0) when idle. */
    Tick nextEventBound() { return sim_.nextEventBound(); }

    /** Finalize stats (makespan, channel residencies) and publish
     *  metrics: the one epilogue of every run. */
    const SsdStats &finishOpen();

    /**
     * Prefix prepended to every published metric name, with a leading
     * "ssd." stripped first so "ssd.host.requests" becomes
     * "ssd3.host.requests" under prefix "ssd3." (and "odear.rp.*" /
     * "sim.*" become "ssd3.odear.rp.*" / "ssd3.sim.*"). Empty (the
     * default) publishes the catalog names unchanged.
     */
    void setMetricsPrefix(std::string prefix)
    {
        metricsPrefix_ = std::move(prefix);
    }

    const SsdConfig &config() const { return config_; }

    /** Access to the FTL for invariant checks in tests. */
    const Ftl &ftl() const { return *ftl_; }

    /** The event kernel (exposed for timeline studies). */
    Simulator &simulator() { return sim_; }

    /**
     * Pool instrumentation (allocation-free steady state): objects ever
     * constructed by the PageOp / HostRequest pools. Bounded by the
     * in-flight maximum (queue depth x request size + GC), not by the
     * trace length — asserted by the zero-steady-state-allocation test.
     */
    std::size_t pageOpPoolAllocated() const
    {
        return pageOpPool_.allocated();
    }
    std::size_t hostRequestPoolAllocated() const
    {
        return hostReqPool_.allocated();
    }
    /** Objects ever constructed by the GC-job pool: at most
     *  geometry.channels, the in-flight cap of maybeStartGc. */
    std::size_t gcJobPoolAllocated() const { return gcJobPool_.allocated(); }

  private:
    struct HostRequest
    {
        bool isRead = true;
        std::uint64_t bytes = 0;
        int pagesRemaining = 0;
        Tick issued = 0;
        int queue = 0;
        /** Completion hook, fired after the request is released. */
        InlineFunction<void(Tick)> onDone;
    };

    /** An in-flight GC job: the FTL's work order plus the relocations
     *  still outstanding before the victim's erase. */
    struct GcRun
    {
        GcJob job;
        int movesLeft = 0;
    };

    DieModel &dieAt(const nand::PhysAddr &addr);
    /**
     * Gathered read dispatch, shared by host reads and GC relocation:
     * enqueue the `count` ops makeOp(i) builds, in index order, without
     * poking their dies, then kick each touched die once.
     */
    template <typename MakeOp>
    void dispatchGathered(std::size_t count, MakeOp makeOp);
    void dispatchReadPages(HostRequest *req, std::uint64_t lpn,
                           std::uint32_t pages);
    void dispatchWritePages(HostRequest *req, std::uint64_t lpn,
                            std::uint32_t pages);
    void finishRequest(HostRequest *req);
    void maybeStartGc();
    void drainStalledWrites();
    /** Count a completed GC job that freed nothing; fail the run once
     *  such jobs outnumber the drive's blocks (see noGainGcStreak_). */
    void checkGcProgress(const GcJob &job);
    void runGcJob(GcRun *run);
    /** Pooled op with all per-use fields reset; release with freeOp. */
    PageOp *acquireOp(PageOp::Type type);
    void freeOp(PageOp *op) { pageOpPool_.release(op); }
    PageOp *newReadOp(std::uint64_t lpn,
                      InlineFunction<void(PageOp *)> done);
    void applyPlanStats(const ReadPlanStats &ps);
    /**
     * Publish the run's statistics into the active metrics collector
     * (no-op without one): host/NAND/GC/retry counters, the ODEAR
     * confusion matrix, per-channel state ticks, latency distributions
     * and the kernel/pool gauges. See docs/OBSERVABILITY.md.
     */
    void publishMetrics() const;

    SsdConfig config_;
    Simulator sim_;
    Rng rng_;
    odear::RpBehaviorModel behavior_;

    std::unique_ptr<Ftl> ftl_;
    std::vector<ChannelUsage> usage_;
    std::vector<std::unique_ptr<EccEngine>> eccs_;
    std::vector<std::unique_ptr<ChannelModel>> channels_;
    std::vector<std::unique_ptr<DieModel>> dies_; // channel-major
    std::unique_ptr<HostLink> hostLink_;

    /** Scratch for dispatchGathered: dies touched this call. */
    std::vector<DieModel *> gatherDies_;
    /** Gathered-dispatch accounting (ssd.read.gather.* metrics). */
    std::uint64_t gatherPages_ = 0;
    std::uint64_t gatherKicks_ = 0;
    int outstanding_ = 0;
    int outstandingPeak_ = 0;
    int gcJobsInFlight_ = 0;
    /**
     * GC jobs completed since the last host request retired whose
     * victim was fully valid, so they freed nothing. A streak longer
     * than the drive's block count is a livelock (checkGcProgress).
     */
    std::uint64_t noGainGcStreak_ = 0;
    /** Host writes parked while GC reclaims free blocks. */
    Fifo<InlineFunction<void()>> stalledWrites_;

    /**
     * Free-list pools for the per-operation records. Steady-state
     * replay acquires and releases without heap allocation; pooled
     * PageOps additionally retain their script vector's capacity, so
     * planReadInto never allocates either, and pooled GC jobs keep
     * their lpnsToMove capacity.
     */
    ObjectPool<PageOp> pageOpPool_;
    ObjectPool<HostRequest> hostReqPool_;
    ObjectPool<GcRun> gcJobPool_;

    /** See setMetricsPrefix(). */
    std::string metricsPrefix_;

    SsdStats stats_;
};

} // namespace ssd
} // namespace rif

#endif // RIF_SSD_SSD_H
