/**
 * @file
 * Simulation statistics: bandwidth, request latencies (Fig. 19),
 * per-channel usage breakdown (Fig. 18) and retry/prediction counters.
 */

#ifndef RIF_SSD_STATS_H
#define RIF_SSD_STATS_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/units.h"

namespace rif {
namespace ssd {

/** What a flash channel is doing (Fig. 18 categories + writes). */
enum class ChannelState
{
    Idle = 0,     ///< nothing to do
    CorXfer,      ///< transferring a correctable page
    UncorXfer,    ///< transferring a page the ECC engine cannot decode
    EccWait,      ///< stalled: ECC buffer full
    WriteXfer,    ///< program data out to a die
};

constexpr int kChannelStates = 5;

/** Per-channel time accounting. */
class ChannelUsage
{
  public:
    /** Enter a new state at `now` (accumulates the previous interval). */
    void transition(ChannelState next, Tick now);

    /** Close accounting at end of simulation. */
    void finish(Tick now);

    Tick time(ChannelState s) const
    {
        return acc_[static_cast<int>(s)];
    }
    Tick total() const;
    double fraction(ChannelState s) const;
    ChannelState current() const { return state_; }

  private:
    Tick acc_[kChannelStates] = {0, 0, 0, 0, 0};
    ChannelState state_ = ChannelState::Idle;
    Tick since_ = 0;
};

/** Aggregate simulation results. */
struct SsdStats
{
    Tick makespan = 0;
    std::uint64_t hostReadBytes = 0;
    std::uint64_t hostWriteBytes = 0;
    std::uint64_t hostRequests = 0;

    std::uint64_t pageReads = 0;
    std::uint64_t pageWrites = 0;
    std::uint64_t blockErases = 0;
    std::uint64_t gcPageMoves = 0;
    std::uint64_t disturbBlockRelocations = 0;

    std::uint64_t retriedReads = 0;       ///< reads needing any retry
    std::uint64_t uncorTransfers = 0;     ///< failed pages sent off-chip
    std::uint64_t failedDecodes = 0;      ///< max-iteration ECC decodes
    std::uint64_t rpPredictions = 0;      ///< on-die predictions run
    std::uint64_t avoidedTransfers = 0;   ///< uncorrectable xfers avoided
    std::uint64_t falseInDieRetries = 0;  ///< RP false positives
    std::uint64_t missedPredictions = 0;  ///< RP false negatives

    PercentileTracker readLatencyUs;
    PercentileTracker writeLatencyUs;
    /** Per-host-queue read latencies (multi-tenant replay). */
    std::vector<PercentileTracker> queueReadLatencyUs;
    std::vector<ChannelUsage> channels;

    /** Host-visible I/O bandwidth in MB/s over the makespan. */
    double ioBandwidthMBps() const;
    /** Write amplification: flash programs per host-written page. */
    double writeAmplification(std::uint64_t page_bytes) const;
    /** Usage fraction of a state aggregated over all channels. */
    double channelFraction(ChannelState s) const;
};

} // namespace ssd
} // namespace rif

#endif // RIF_SSD_STATS_H
