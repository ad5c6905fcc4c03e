/**
 * @file
 * The generated open-loop arrival process: a Poisson generator that
 * assigns arrival timestamps to any TraceSource, turning a closed-loop
 * request stream into offered load. It runs on the repo's own Rng, so
 * open-loop runs stay byte-identical at any thread or job count.
 */

#ifndef RIF_TRACE_ARRIVAL_H
#define RIF_TRACE_ARRIVAL_H

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/units.h"
#include "trace/trace.h"

namespace rif {
namespace trace {

/**
 * Memoryless open loop: exponential gaps with mean 1/iops, starting at
 * tick zero. Arrival ticks are non-decreasing across next() calls.
 */
class PoissonArrivals
{
  public:
    PoissonArrivals(double iops, std::uint64_t seed);

    /** The next request's arrival tick. */
    Tick next();

  private:
    double ratePerUs_;
    Rng rng_;
    double cursorUs_ = 0.0;
};

/**
 * Stamps a Poisson process onto an inner stream: next() forwards the
 * record and overwrites its arrival tick. The process is copied in, so
 * a TimedTrace draws the same sequence its argument would have.
 * Footprint, cold layout and the precondition digest pass straight
 * through — pacing does not change preconditioned FTL state, so every
 * offered-load point of a sweep shares one snapshot-cache entry.
 */
class TimedTrace final : public TraceSource
{
  public:
    /** Owning composition (the factory path: openWorkload). */
    TimedTrace(std::unique_ptr<TraceSource> inner,
               const PoissonArrivals &arrivals);
    /** Non-owning composition (stack-built test fixtures). */
    TimedTrace(TraceSource &inner, const PoissonArrivals &arrivals);

    bool next(IoRecord &out) override;
    std::uint64_t footprintPages() const override;
    std::uint64_t coldRegionStart() const override;
    bool isCold(std::uint64_t lpn) const override;
    bool preconditionDigest(Hasher &h) const override;

  private:
    std::unique_ptr<TraceSource> ownedInner_;
    TraceSource &inner_;
    PoissonArrivals arrivals_;
};

} // namespace trace
} // namespace rif

#endif // RIF_TRACE_ARRIVAL_H
