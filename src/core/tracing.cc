#include "core/tracing.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"

namespace rif {
namespace tracing {

namespace {

/** Events per preallocated buffer chunk (~770 KiB per chunk). */
constexpr std::size_t kChunkEvents = 16384;

constexpr std::size_t kDefaultTrackBudget = 4096;

std::uint64_t
nextRecorderEpoch()
{
    static std::mutex m;
    static std::uint64_t next = 1;
    std::unique_lock<std::mutex> lock(m);
    return next++;
}

/**
 * Total order over events: by track, then simulated time, then every
 * remaining field, so the sorted emission is deterministic no matter
 * which buffers the events landed in.
 */
bool
eventBefore(const TraceEvent &a, const TraceEvent &b)
{
    if (a.track != b.track)
        return a.track < b.track;
    if (a.ts != b.ts)
        return a.ts < b.ts;
    if (a.lane != b.lane)
        return a.lane < b.lane;
    if (a.dur != b.dur)
        return a.dur > b.dur; // longer spans open first at equal start
    if (a.phase != b.phase)
        return a.phase < b.phase;
    const int nc = std::strcmp(a.name, b.name);
    if (nc != 0)
        return nc < 0;
    const int ac = std::strcmp(a.argName ? a.argName : "",
                               b.argName ? b.argName : "");
    if (ac != 0)
        return ac < 0;
    return a.argValue < b.argValue;
}

} // namespace


/**
 * Per-thread event storage plus the shared (mutexed) buffer registry
 * and track labels. Append path touches only this thread's Buffer.
 */
class Recorder
{
  public:
    explicit Recorder(std::size_t perTrackBudget)
        : budget_(perTrackBudget ? perTrackBudget : kDefaultTrackBudget),
          epoch_(nextRecorderEpoch())
    {
    }

    void
    record(const TraceEvent &ev)
    {
        Buffer &b = buffer();
        if (ev.track != b.budgetTrack) {
            b.budgetTrack = ev.track;
            b.budgetCount = 0;
        }
        if (++b.budgetCount > budget_) {
            ++b.dropped;
            return;
        }
        std::vector<TraceEvent> &chunk = b.chunks.back();
        if (chunk.size() == chunk.capacity()) {
            b.chunks.emplace_back();
            b.chunks.back().reserve(kChunkEvents);
        }
        b.chunks.back().push_back(ev);
    }

    void
    setLabel(std::uint32_t track, const std::string &label)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        labels_[track] = label;
    }

    /** Merge + sort all buffers; call after traced work completes. */
    std::vector<TraceEvent>
    collect(std::uint64_t *droppedOut) const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        std::vector<TraceEvent> all;
        std::uint64_t dropped = 0;
        for (const auto &b : buffers_) {
            dropped += b->dropped;
            for (const auto &chunk : b->chunks)
                all.insert(all.end(), chunk.begin(), chunk.end());
        }
        std::sort(all.begin(), all.end(), eventBefore);
        if (droppedOut)
            *droppedOut = dropped;
        return all;
    }

    std::map<std::uint32_t, std::string>
    labels() const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return labels_;
    }

  private:
    struct Buffer
    {
        Buffer() { chunks.emplace_back().reserve(kChunkEvents); }

        std::vector<std::vector<TraceEvent>> chunks;
        std::uint32_t budgetTrack = 0xffffffffu;
        std::size_t budgetCount = 0;
        std::uint64_t dropped = 0;
    };

    struct BufferCache
    {
        std::uint64_t epoch = 0;
        Buffer *buffer = nullptr;
    };

    Buffer &
    buffer()
    {
        static thread_local BufferCache cache;
        if (cache.epoch == epoch_)
            return *cache.buffer;
        std::unique_lock<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<Buffer>());
        cache.epoch = epoch_;
        cache.buffer = buffers_.back().get();
        return *cache.buffer;
    }

    const std::size_t budget_;
    const std::uint64_t epoch_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
    std::map<std::uint32_t, std::string> labels_;
};

namespace detail {

void
record(const TraceEvent &ev)
{
    if (t_recorder)
        t_recorder->record(ev);
}

} // namespace detail

void
setTrackLabel(std::uint32_t track, const std::string &label)
{
    if (Recorder *r = detail::t_recorder)
        r->setLabel(track, label);
}

TraceScope::TraceScope(std::size_t perTrackBudget)
    : recorder_(std::make_unique<Recorder>(perTrackBudget)),
      prev_(detail::t_recorder)
{
    detail::t_recorder = recorder_.get();
}

TraceScope::~TraceScope()
{
    detail::t_recorder = prev_;
}

std::uint64_t
TraceScope::eventCount() const
{
    return recorder_->collect(nullptr).size();
}

std::uint64_t
TraceScope::dropped() const
{
    std::uint64_t dropped = 0;
    recorder_->collect(&dropped);
    return dropped;
}

void
TraceScope::writeChromeJson(std::ostream &os) const
{
    std::uint64_t dropped = 0;
    const std::vector<TraceEvent> events = recorder_->collect(&dropped);
    const auto labels = recorder_->labels();

    os << "{\"traceEvents\": [";
    bool first = true;
    for (const auto &[track, label] : labels) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  {\"ph\": \"M\", \"pid\": " << track
           << ", \"name\": \"process_name\", \"args\": {\"name\": \""
           << jsonEscape(label) << "\"}}";
    }
    char ts[32], dur[32];
    for (const TraceEvent &e : events) {
        if (!first)
            os << ",";
        first = false;
        // Chrome wants microseconds; ticks are integer nanoseconds, so
        // three decimals is exact.
        std::snprintf(ts, sizeof(ts), "%.3f",
                      static_cast<double>(e.ts) / 1000.0);
        os << "\n  {\"name\": \"" << jsonEscape(e.name) << "\", \"ph\": \""
           << e.phase << "\", \"pid\": " << e.track
           << ", \"tid\": " << e.lane << ", \"ts\": " << ts;
        if (e.phase == 'X') {
            std::snprintf(dur, sizeof(dur), "%.3f",
                          static_cast<double>(e.dur) / 1000.0);
            os << ", \"dur\": " << dur;
        } else {
            os << ", \"s\": \"t\"";
        }
        if (e.argName)
            os << ", \"args\": {\"" << jsonEscape(e.argName)
               << "\": " << e.argValue << "}";
        os << "}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
          "{\"clock\": \"simulated_ns\", \"dropped\": \""
       << dropped << "\"}}\n";
}

void
TraceScope::writeJsonl(std::ostream &os) const
{
    std::uint64_t dropped = 0;
    const std::vector<TraceEvent> events = recorder_->collect(&dropped);
    const auto labels = recorder_->labels();

    for (const auto &[track, label] : labels)
        os << "{\"label\": {\"track\": " << track << ", \"name\": \""
           << jsonEscape(label) << "\"}}\n";
    for (const TraceEvent &e : events) {
        os << "{\"name\": \"" << jsonEscape(e.name) << "\", \"ph\": \""
           << e.phase << "\", \"track\": " << e.track
           << ", \"lane\": " << e.lane << ", \"ts_ns\": " << e.ts;
        if (e.phase == 'X')
            os << ", \"dur_ns\": " << e.dur;
        if (e.argName)
            os << ", \"args\": {\"" << jsonEscape(e.argName)
               << "\": " << e.argValue << "}";
        os << "}\n";
    }
    os << "{\"meta\": {\"events\": " << events.size()
       << ", \"dropped\": " << dropped << "}}\n";
}

namespace {

/** Propagate recorder + current track into pool workers. */
const bool g_hooksRegistered = [] {
    registerTaskContext(TaskContextHooks{
        []() -> void * { return detail::t_recorder; },
        [](void *captured) -> void * {
            void *prev = detail::t_recorder;
            detail::t_recorder = static_cast<Recorder *>(captured);
            return prev;
        },
        [](void *previous) {
            detail::t_recorder = static_cast<Recorder *>(previous);
        }});
    registerTaskContext(TaskContextHooks{
        []() -> void * {
            return reinterpret_cast<void *>(
                static_cast<std::uintptr_t>(detail::t_track));
        },
        [](void *captured) -> void * {
            void *prev = reinterpret_cast<void *>(
                static_cast<std::uintptr_t>(detail::t_track));
            detail::t_track = static_cast<std::uint32_t>(
                reinterpret_cast<std::uintptr_t>(captured));
            return prev;
        },
        [](void *previous) {
            detail::t_track = static_cast<std::uint32_t>(
                reinterpret_cast<std::uintptr_t>(previous));
        }});
    return true;
}();

} // namespace

} // namespace tracing
} // namespace rif
