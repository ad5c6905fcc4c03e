/**
 * @file
 * Read-retry policy planner. For each page read, the planner samples the
 * read's stochastic outcome (realized RBER, decodability, RP prediction)
 * and emits a *read script* — the exact sequence of die visits, channel
 * transfers and ECC decodes the read will execute under the configured
 * policy. Scripts make the policies' timing behaviour pure and unit
 * testable, independent of the event engine that executes them.
 */

#ifndef RIF_SSD_POLICY_H
#define RIF_SSD_POLICY_H

#include <vector>

#include "common/rng.h"
#include "odear/accuracy.h"
#include "ssd/config.h"
#include "ssd/stats.h"

namespace rif {
namespace ssd {

/** One step of a read script. */
struct ReadPhase
{
    enum class Kind
    {
        DieVisit, ///< occupy the die (sense / on-die predict / re-read)
        Transfer, ///< move one page over the flash channel
        Decode,   ///< occupy the channel-level ECC engine
    };

    Kind kind = Kind::DieVisit;
    Tick duration = 0;
    /** For Transfer: channel accounting category. */
    ChannelState usage = ChannelState::CorXfer;
    /** For Decode: whether this decode ends in failure. */
    bool decodeFails = false;

    static ReadPhase die(Tick t);
    static ReadPhase xfer(ChannelState usage);
    static ReadPhase decode(Tick t, bool fails);
};

/** Statistics deltas implied by a planned read. */
struct ReadPlanStats
{
    bool retried = false;
    int uncorTransfers = 0;
    int failedDecodes = 0;
    int rpPredictions = 0;
    int avoidedTransfers = 0;
    int falseInDieRetries = 0;
    int missedPredictions = 0;
};

/** A fully planned page read. */
struct ReadScript
{
    std::vector<ReadPhase> phases;
    ReadPlanStats stats;
};

/**
 * Plan one page read.
 *
 * @param config SSD configuration (policy, timing, probabilities)
 * @param behavior RP/decoder probabilistic behaviour model
 * @param rber the page's nominal RBER at default VREF under its current
 *        wear/retention state
 * @param rng randomness for outcome sampling
 */
ReadScript planRead(const SsdConfig &config,
                    const odear::RpBehaviorModel &behavior, double rber,
                    Rng &rng);

/**
 * planRead into a caller-owned script, clearing it first. The phase
 * vector's capacity is reused, so planning into a pooled PageOp's
 * script performs no heap allocation in steady state.
 */
void planReadInto(const SsdConfig &config,
                  const odear::RpBehaviorModel &behavior, double rber,
                  Rng &rng, ReadScript &out);

/** Build the behaviour model implied by a configuration. */
odear::RpBehaviorModel makeBehaviorModel(const SsdConfig &config);

} // namespace ssd
} // namespace rif

#endif // RIF_SSD_POLICY_H
