#include "ssd/arrival.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "core/tracing.h"
#include "trace/workload.h"

namespace rif {
namespace ssd {

ClosedLoopArrival::ClosedLoopArrival(int queueDepth)
    : queueDepth_(queueDepth)
{
    RIF_ASSERT(queueDepth > 0);
}

void
ClosedLoopArrival::prime(HostDriver &host, int queue)
{
    for (int i = 0; i < queueDepth_; ++i) {
        if (!host.inject(queue))
            break;
        ++stats_.injected;
    }
    stats_.offered = stats_.injected;
}

void
ClosedLoopArrival::onCompletion(HostDriver &host, int queue)
{
    if (host.inject(queue)) {
        ++stats_.injected;
        ++stats_.offered;
    }
}

OpenLoopArrival::OpenLoopArrival(int queueCap, int deviceDepth)
    : queueCap_(queueCap), deviceDepth_(deviceDepth)
{
    RIF_ASSERT(queueCap > 0 && deviceDepth > 0);
    stats_.openLoop = true;
}

OpenLoopArrival::QueueState &
OpenLoopArrival::state(int queue)
{
    const auto q = static_cast<std::size_t>(queue);
    if (q >= queues_.size())
        queues_.resize(q + 1);
    return queues_[q];
}

void
OpenLoopArrival::prime(HostDriver &host, int queue)
{
    state(queue);
    scheduleNextArrival(host, queue);
}

void
OpenLoopArrival::scheduleNextArrival(HostDriver &host, int queue)
{
    QueueState &qs = state(queue);
    if (!host.pullNext(queue, qs.pending))
        return;
    qs.pendingValid = true;
    const Tick at = std::max(qs.pending.arrival, host.now());
    host.scheduleAt(at,
                    [this, &host, queue] { onArrival(host, queue); });
}

void
OpenLoopArrival::onArrival(HostDriver &host, int queue)
{
    QueueState &qs = state(queue);
    RIF_ASSERT(qs.pendingValid);
    const trace::IoRecord rec = qs.pending;
    qs.pendingValid = false;
    ++stats_.offered;

    if (qs.inFlight < deviceDepth_) {
        ++qs.inFlight;
        ++stats_.injected;
        host.startRecord(rec, queue, host.now());
    } else if (qs.waiting.size() <
               static_cast<std::size_t>(queueCap_)) {
        qs.waiting.push_back(Waiting{rec, host.now()});
        ++stats_.enqueued;
        stats_.queuePeak = std::max(
            stats_.queuePeak,
            static_cast<std::uint64_t>(qs.waiting.size()));
    } else {
        ++stats_.dropped;
        tracing::instant("host.queue.drop", host.now(), 0, "queue",
                         static_cast<std::int64_t>(queue));
    }
    scheduleNextArrival(host, queue);
}

void
OpenLoopArrival::onCompletion(HostDriver &host, int queue)
{
    QueueState &qs = state(queue);
    --qs.inFlight;
    if (qs.waiting.empty() || qs.inFlight >= deviceDepth_)
        return;
    const Waiting w = qs.waiting.front();
    qs.waiting.pop_front();
    ++qs.inFlight;
    ++stats_.injected;
    tracing::complete("host.queue.wait", w.arrivedAt,
                      host.now() - w.arrivedAt, 0, "queue",
                      static_cast<std::int64_t>(queue));
    host.startRecord(w.rec, queue, w.arrivedAt);
}

HostDriver::HostDriver(Simulator &lane,
                       const std::vector<trace::TraceSource *> &sources,
                       ArrivalPolicy &policy, StartFn start)
    : lane_(lane), policy_(policy), start_(std::move(start))
{
    queues_.reserve(sources.size());
    for (trace::TraceSource *s : sources)
        queues_.push_back(Queue{s, false});
}

void
HostDriver::prime()
{
    for (std::size_t q = 0; q < queues_.size(); ++q)
        policy_.prime(*this, static_cast<int>(q));
}

bool
HostDriver::pullNext(int queue, trace::IoRecord &out)
{
    Queue &q = queues_[static_cast<std::size_t>(queue)];
    if (q.drained)
        return false;
    if (!q.source->next(out)) {
        q.drained = true;
        return false;
    }
    return true;
}

bool
HostDriver::inject(int queue)
{
    trace::IoRecord rec;
    if (!pullNext(queue, rec))
        return false;
    start_(rec, queue, now());
    return true;
}

void
HostDriver::publishMetrics() const
{
    namespace m = metrics;
    m::Collector *c = m::activeCollector();
    const ArrivalStats &a = policy_.stats();
    if (!c || !a.openLoop)
        return;
    const auto counter = [&](const char *name, const char *help,
                             std::uint64_t v) {
        c->add(m::registerMetric(name, m::Kind::Counter, "ops", help), v);
    };
    counter("host.arrival.offered",
            "open-loop records arriving at the host", a.offered);
    counter("host.arrival.injected", "arrivals started on the device",
            a.injected);
    counter("host.arrival.dropped",
            "arrivals discarded because the host queue was full",
            a.dropped);
    counter("host.queue.enqueued",
            "arrivals parked in the bounded host queue", a.enqueued);
    c->gaugeMax(m::registerMetric("host.queue.depth_peak", m::Kind::Gauge,
                                  "reqs",
                                  "bounded host-queue depth high-water mark"),
                a.queuePeak);
}

std::unique_ptr<ArrivalPolicy>
makeArrivalPolicy(const trace::WorkloadConfig &cfg, int deviceDepth)
{
    if (!cfg.openLoop())
        return std::make_unique<ClosedLoopArrival>(deviceDepth);
    return std::make_unique<OpenLoopArrival>(cfg.queueCap, deviceDepth);
}

} // namespace ssd
} // namespace rif
