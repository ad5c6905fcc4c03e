#include "ssd/stats.h"

#include "common/logging.h"

namespace rif {
namespace ssd {

void
ChannelUsage::transition(ChannelState next, Tick now)
{
    RIF_ASSERT(now >= since_);
    acc_[static_cast<int>(state_)] += now - since_;
    state_ = next;
    since_ = now;
}

void
ChannelUsage::finish(Tick now)
{
    transition(ChannelState::Idle, now);
}

Tick
ChannelUsage::total() const
{
    Tick t = 0;
    for (Tick a : acc_)
        t += a;
    return t;
}

double
ChannelUsage::fraction(ChannelState s) const
{
    const Tick t = total();
    if (t == 0)
        return 0.0;
    return static_cast<double>(time(s)) / static_cast<double>(t);
}

double
SsdStats::ioBandwidthMBps() const
{
    return bytesPerTickToMBps(hostReadBytes + hostWriteBytes, makespan);
}

double
SsdStats::writeAmplification(std::uint64_t page_bytes) const
{
    const std::uint64_t host_pages = hostWriteBytes / page_bytes;
    if (host_pages == 0)
        return 0.0;
    return static_cast<double>(pageWrites) /
           static_cast<double>(host_pages);
}

double
SsdStats::channelFraction(ChannelState s) const
{
    if (channels.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &c : channels)
        sum += c.fraction(s);
    return sum / static_cast<double>(channels.size());
}

} // namespace ssd
} // namespace rif
