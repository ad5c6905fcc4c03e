#include "trace/arrival.h"

#include "common/logging.h"

namespace rif {
namespace trace {

PoissonArrivals::PoissonArrivals(double iops, std::uint64_t seed)
    : ratePerUs_(iops / 1e6), rng_(seed)
{
    RIF_ASSERT(iops > 0.0);
}

Tick
PoissonArrivals::next()
{
    const Tick t = usToTicks(cursorUs_);
    cursorUs_ += rng_.exponential(ratePerUs_);
    return t;
}

TimedTrace::TimedTrace(std::unique_ptr<TraceSource> inner,
                       const PoissonArrivals &arrivals)
    : ownedInner_(std::move(inner)), inner_(*ownedInner_),
      arrivals_(arrivals)
{
}

TimedTrace::TimedTrace(TraceSource &inner, const PoissonArrivals &arrivals)
    : inner_(inner), arrivals_(arrivals)
{
}

bool
TimedTrace::next(IoRecord &out)
{
    if (!inner_.next(out))
        return false;
    out.arrival = arrivals_.next();
    return true;
}

std::uint64_t
TimedTrace::footprintPages() const
{
    return inner_.footprintPages();
}

std::uint64_t
TimedTrace::coldRegionStart() const
{
    return inner_.coldRegionStart();
}

bool
TimedTrace::isCold(std::uint64_t lpn) const
{
    return inner_.isCold(lpn);
}

bool
TimedTrace::preconditionDigest(Hasher &h) const
{
    return inner_.preconditionDigest(h);
}

} // namespace trace
} // namespace rif
