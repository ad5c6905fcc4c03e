/**
 * @file
 * The host replay engine and its pluggable injection policies. One
 * concrete HostDriver replays per-queue TraceSources for both a bare
 * drive (its lane is the drive's own simulator, its start callback
 * Ssd::submitIo) and a fleet (the fleet's host lane, placement plus
 * sub-IO submission), and delegates *when* requests enter the device
 * to an ArrivalPolicy: the classic closed loop at a fixed queue depth
 * (byte-identical to the historical hard-coded loop), or an open loop
 * that injects at the records' arrival ticks with a bounded host queue
 * and drop/overload accounting. Policies run entirely on the host
 * event lane, so open-loop runs stay deterministic at any thread
 * count, and the driver emits the host.arrival.* / host.queue.*
 * observability surfaces.
 */

#ifndef RIF_SSD_ARRIVAL_H
#define RIF_SSD_ARRIVAL_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/inline_function.h"
#include "common/units.h"
#include "ssd/sim.h"
#include "trace/trace.h"

namespace rif {

namespace trace {
struct WorkloadConfig;
} // namespace trace

namespace ssd {

class HostDriver;

/** Injection accounting, published as host.arrival.* / host.queue.*. */
struct ArrivalStats
{
    std::uint64_t offered = 0;  ///< records that arrived at the host
    std::uint64_t injected = 0; ///< requests started on the device
    std::uint64_t enqueued = 0; ///< arrivals parked in the host queue
    std::uint64_t dropped = 0;  ///< arrivals discarded: queue full
    std::uint64_t queuePeak = 0; ///< host-queue depth high-water mark
    /** True for open-loop policies (selects the metric surface). */
    bool openLoop = false;
};

/** When to inject the next request (the replay loop's strategy). */
class ArrivalPolicy
{
  public:
    virtual ~ArrivalPolicy() = default;

    /** Start queue `queue`'s injection at host time zero. */
    virtual void prime(HostDriver &host, int queue) = 0;

    /** One request of `queue` completed; its device slot is free. */
    virtual void onCompletion(HostDriver &host, int queue) = 0;

    const ArrivalStats &stats() const { return stats_; }

  protected:
    ArrivalStats stats_;
};

/**
 * The historical replay loop: keep `queueDepth` requests outstanding
 * per queue. prime() injects the initial window and every completion
 * injects exactly one successor — the same call sequence as the old
 * hard-coded loop, so closed-loop output is byte-identical.
 */
class ClosedLoopArrival final : public ArrivalPolicy
{
  public:
    explicit ClosedLoopArrival(int queueDepth);

    void prime(HostDriver &host, int queue) override;
    void onCompletion(HostDriver &host, int queue) override;

  private:
    int queueDepth_;
};

/**
 * Open loop: requests arrive at their records' arrival ticks,
 * independent of completions. At most `deviceDepth` requests run on
 * the device per queue; excess arrivals park in a bounded host queue
 * of `queueCap` entries (FIFO, latency measured from arrival, so
 * queue wait is visible in the tail) and arrivals beyond that are
 * dropped and counted — the overload signal of the offered-load
 * sweeps. Exactly one pending arrival event exists per queue, so the
 * policy adds O(queues) memory regardless of trace length.
 */
class OpenLoopArrival final : public ArrivalPolicy
{
  public:
    OpenLoopArrival(int queueCap, int deviceDepth);

    void prime(HostDriver &host, int queue) override;
    void onCompletion(HostDriver &host, int queue) override;

  private:
    struct Waiting
    {
        trace::IoRecord rec;
        Tick arrivedAt = 0;
    };
    struct QueueState
    {
        trace::IoRecord pending; ///< record whose arrival is scheduled
        bool pendingValid = false;
        int inFlight = 0;
        std::deque<Waiting> waiting;
    };

    void scheduleNextArrival(HostDriver &host, int queue);
    void onArrival(HostDriver &host, int queue);
    QueueState &state(int queue);

    int queueCap_;
    int deviceDepth_;
    std::vector<QueueState> queues_;
};

/**
 * The host side of a replay: one cursor and drained flag per host
 * submission queue, the ArrivalPolicy pacing them, and the host event
 * lane the policy schedules on. Requests start through one callback,
 * start(record, queue, issuedAt); the device reports each retirement
 * back with complete(queue). `issuedAt` <= now: open-loop latency
 * includes host-queue wait.
 */
class HostDriver
{
  public:
    using StartFn =
        InlineFunction<void(const trace::IoRecord &, int, Tick)>;

    HostDriver(Simulator &lane,
               const std::vector<trace::TraceSource *> &sources,
               ArrivalPolicy &policy, StartFn start);

    // Scheduled events and completion hooks hold its address.
    HostDriver(const HostDriver &) = delete;
    HostDriver &operator=(const HostDriver &) = delete;

    /** Start every queue's injection at the lane's current time. */
    void prime();

    /** One request of `queue` retired; its device slot is free. */
    void complete(int queue) { policy_.onCompletion(*this, queue); }

    /**
     * Publish host.arrival.* / host.queue.* into the active metrics
     * collector. Only open-loop runs publish, so closed-loop metric
     * snapshots stay byte-identical to the pre-ArrivalPolicy engine.
     */
    void publishMetrics() const;

    // ---- The surface the ArrivalPolicy drives -----------------------

    /** Pull the next record of `queue`; false once drained. */
    bool pullNext(int queue, trace::IoRecord &out);

    /** Start `rec` on the device now, latency measured from
     *  `issuedAt`. */
    void
    startRecord(const trace::IoRecord &rec, int queue, Tick issuedAt)
    {
        start_(rec, queue, issuedAt);
    }

    /**
     * The legacy closed-loop step: pull and immediately start one
     * record, measured from now. False once the queue is drained.
     */
    bool inject(int queue);

    /** Current host-lane simulated time. */
    Tick now() const { return lane_.now(); }

    /** Schedule `fn` on the host event lane at `when`. */
    void
    scheduleAt(Tick when, InlineFunction<void()> fn)
    {
        lane_.scheduleAt(when, std::move(fn));
    }

  private:
    struct Queue
    {
        trace::TraceSource *source = nullptr;
        bool drained = false;
    };

    Simulator &lane_;
    ArrivalPolicy &policy_;
    StartFn start_;
    std::vector<Queue> queues_;
};

/**
 * The policy matching a workload's arrival mode: closed-loop at
 * `deviceDepth` (the historical behaviour), or an OpenLoopArrival with
 * the workload's host-queue bound for every open-loop mode.
 */
std::unique_ptr<ArrivalPolicy>
makeArrivalPolicy(const trace::WorkloadConfig &cfg, int deviceDepth);

} // namespace ssd
} // namespace rif

#endif // RIF_SSD_ARRIVAL_H
