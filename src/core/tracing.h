/**
 * @file
 * Span/instant event tracing over *simulated* time. A TraceScope
 * activates a Recorder on the current thread (propagated to pool
 * workers like the metrics collector); instrumentation sites call
 * complete()/instant() with simulated-tick timestamps, and the scope
 * renders the recording as Chrome `trace_event` JSON (open in
 * Perfetto / chrome://tracing) or compact JSONL.
 *
 * Hot-path contract: events append into per-thread buffers made of
 * preallocated fixed-size chunks, so the steady-state record path
 * never allocates; each *track* (one simulated run, mapped to a Chrome
 * pid) keeps at most a fixed budget of events, further records bump a
 * drop counter. Because timestamps are simulated ticks and every track
 * is written by exactly one thread in deterministic order, the emitted
 * JSON is byte-identical at any RIF_THREADS setting — the
 * trace shows what the *simulated* SSD did, not the host scheduler.
 *
 * See docs/OBSERVABILITY.md for the format spec and a worked example.
 */

#ifndef RIF_CORE_TRACING_H
#define RIF_CORE_TRACING_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "common/units.h"

namespace rif {
namespace tracing {

/** One recorded event; name/argName must be static strings. */
struct TraceEvent {
    const char *name;
    const char *argName; ///< nullptr when the event carries no argument
    std::int64_t argValue;
    Tick ts;  ///< simulated start time
    Tick dur; ///< span duration (0 for instants)
    std::uint32_t track; ///< logical timeline (one simulated run) -> pid
    std::uint32_t lane;  ///< resource lane within the track -> tid
    char phase;          ///< 'X' complete span, 'i' instant
};

class Recorder;

namespace detail {
// Inline definitions (not extern declarations) so every TU sees the
// constant initializer: GCC then emits direct TLS accesses instead of
// routing through the C++ thread_local init wrapper, which both keeps
// the record path to a plain TLS load and avoids a UBSan false
// positive on the wrapper's returned address.
inline constinit thread_local Recorder *t_recorder = nullptr;
inline constinit thread_local std::uint32_t t_track = 0;
void record(const TraceEvent &ev);
} // namespace detail

/** The recorder active on this thread, or nullptr. */
inline Recorder *
activeRecorder()
{
    return detail::t_recorder;
}

/** The track id records from this thread are attributed to. */
inline std::uint32_t
currentTrack()
{
    return detail::t_track;
}

/** Record a completed span [ts, ts + dur) on the current track. */
inline void
complete(const char *name, Tick ts, Tick dur, std::uint32_t lane = 0,
         const char *argName = nullptr, std::int64_t argValue = 0)
{
    if (detail::t_recorder)
        detail::record(TraceEvent{name, argName, argValue, ts, dur,
                                  detail::t_track, lane, 'X'});
}

/** Record an instant event at ts on the current track. */
inline void
instant(const char *name, Tick ts, std::uint32_t lane = 0,
        const char *argName = nullptr, std::int64_t argValue = 0)
{
    if (detail::t_recorder)
        detail::record(TraceEvent{name, argName, argValue, ts, 0,
                                  detail::t_track, lane, 'i'});
}

/**
 * Attach a human-readable label to a track (rendered as the Chrome
 * process name). Cold path; no-op without an active recorder.
 */
void setTrackLabel(std::uint32_t track, const std::string &label);

/**
 * RAII track selection for the current thread. runScenarios gives
 * scenario i the track base i << 16, and parallelRuns wraps each run
 * body in TrackScope(base + runIndex), so every simulated run gets its
 * own timeline regardless of which worker executes it.
 */
class TrackScope
{
  public:
    explicit TrackScope(std::uint32_t track)
        : prev_(detail::t_track)
    {
        detail::t_track = track;
    }
    ~TrackScope() { detail::t_track = prev_; }
    TrackScope(const TrackScope &) = delete;
    TrackScope &operator=(const TrackScope &) = delete;

  private:
    std::uint32_t prev_;
};

/**
 * RAII activation of a Recorder on the constructing thread (and pool
 * workers). Collect the result with writeChromeJson()/writeJsonl()
 * after the traced work completes; the destructor deactivates.
 * Construct and destroy on the same thread.
 */
class TraceScope
{
  public:
    /**
     * @param perTrackBudget  max events kept per track (0 -> 4096);
     *                        further records increment dropped().
     */
    explicit TraceScope(std::size_t perTrackBudget = 0);
    ~TraceScope();
    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    Recorder &recorder() { return *recorder_; }

    /** Events recorded (post-drop), across all threads. */
    std::uint64_t eventCount() const;

    /** Events dropped by the per-track budget. */
    std::uint64_t dropped() const;

    /**
     * Chrome trace_event JSON ("ts"/"dur" in microseconds of simulated
     * time); deterministic byte-for-byte at any thread count.
     */
    void writeChromeJson(std::ostream &os) const;

    /** One JSON object per line + a final meta line; same ordering. */
    void writeJsonl(std::ostream &os) const;

  private:
    std::unique_ptr<Recorder> recorder_;
    Recorder *prev_;
};

} // namespace tracing
} // namespace rif

#endif // RIF_CORE_TRACING_H
