#include "ssd/policy.h"

#include <cmath>

#include "common/logging.h"

namespace rif {
namespace ssd {

ReadPhase
ReadPhase::die(Tick t)
{
    ReadPhase p;
    p.kind = Kind::DieVisit;
    p.duration = t;
    return p;
}

ReadPhase
ReadPhase::xfer(ChannelState usage)
{
    ReadPhase p;
    p.kind = Kind::Transfer;
    p.usage = usage;
    return p;
}

ReadPhase
ReadPhase::decode(Tick t, bool fails)
{
    ReadPhase p;
    p.kind = Kind::Decode;
    p.duration = t;
    p.decodeFails = fails;
    return p;
}

odear::RpBehaviorModel
makeBehaviorModel(const SsdConfig &config)
{
    return odear::RpBehaviorModel(config.rber.capability,
                                  config.codewordBits,
                                  config.rpObservedBits);
}

namespace {

/** First read succeeds: sense, transfer, successful decode. */
void
planClean(const SsdConfig &cfg, double realized_rber, ReadScript &s)
{
    s.phases.push_back(ReadPhase::die(cfg.timing.tR));
    s.phases.push_back(ReadPhase::xfer(ChannelState::CorXfer));
    s.phases.push_back(
        ReadPhase::decode(cfg.teccSuccess(realized_rber), false));
}

/** The failing first round shared by every off-chip policy. */
void
planOffChipFailure(const SsdConfig &cfg, ReadScript &s)
{
    s.phases.push_back(ReadPhase::die(cfg.timing.tR));
    s.phases.push_back(ReadPhase::xfer(ChannelState::UncorXfer));
    s.phases.push_back(ReadPhase::decode(cfg.teccFailure(), true));
    s.stats.retried = true;
    s.stats.uncorTransfers += 1;
    s.stats.failedDecodes += 1;
}

/** The successful retry round: re-sense and deliver a decodable page. */
void
planRetryRound(const SsdConfig &cfg, Tick sense_ticks, ReadScript &s)
{
    s.phases.push_back(ReadPhase::die(sense_ticks));
    s.phases.push_back(ReadPhase::xfer(ChannelState::CorXfer));
    s.phases.push_back(ReadPhase::decode(cfg.teccAfterRetry(), false));
}

} // namespace

ReadScript
planRead(const SsdConfig &cfg, const odear::RpBehaviorModel &behavior,
         double rber, Rng &rng)
{
    ReadScript s;
    planReadInto(cfg, behavior, rber, rng, s);
    return s;
}

void
planReadInto(const SsdConfig &cfg,
             const odear::RpBehaviorModel &behavior, double rber,
             Rng &rng, ReadScript &s)
{
    s.phases.clear();
    s.stats = ReadPlanStats{};
    const auto &t = cfg.timing;

    // SSDzero never retries by definition; cap its decode latency at the
    // successful-decode range.
    if (cfg.policy == PolicyKind::Zero) {
        planClean(cfg, std::min(rber, cfg.rber.capability), s);
        return;
    }

    double effective_rber = rber;
    if (cfg.policy == PolicyKind::SwiftReadPlus &&
        rng.chance(cfg.vrefTrackedFraction)) {
        // The VREF tracker already re-optimized this block's voltages,
        // so the first sense behaves like a post-retry read: the
        // retention shift is gone but the P/E-cycling baseline remains.
        effective_rber =
            cfg.rber.peBase +
            cfg.rber.peCoeff *
                std::pow(cfg.peCycles / 1000.0, cfg.rber.peExp);
    }

    const auto outcome = behavior.sample(effective_rber, rng);

    switch (cfg.policy) {
      case PolicyKind::FixedSequence: {
        // Conventional retry (§II-B2): on failure, step through the
        // manufacturer's predetermined VREF sequence; every attempt is
        // a full off-chip round (sense, transfer, failed decode) until
        // one lands below the capability, so NRR is frequently > 1.
        if (outcome.decodable) {
            planClean(cfg, outcome.realizedRber, s);
            break;
        }
        planOffChipFailure(cfg, s);
        double stepped = effective_rber;
        for (int step = 1; step < cfg.maxRetrySteps; ++step) {
            stepped *= cfg.seqStepFactor;
            const auto retry_outcome = behavior.sample(stepped, rng);
            if (retry_outcome.decodable)
                break;
            // Another failed round at this VREF step.
            s.phases.push_back(ReadPhase::die(t.tR));
            s.phases.push_back(ReadPhase::xfer(ChannelState::UncorXfer));
            s.phases.push_back(
                ReadPhase::decode(cfg.teccFailure(), true));
            s.stats.uncorTransfers += 1;
            s.stats.failedDecodes += 1;
        }
        planRetryRound(cfg, t.tR, s);
        break;
      }

      case PolicyKind::IdealOffChip:
        if (outcome.decodable) {
            planClean(cfg, outcome.realizedRber, s);
        } else {
            planOffChipFailure(cfg, s);
            planRetryRound(cfg, t.tR, s);
        }
        break;

      case PolicyKind::Sentinel:
        if (outcome.decodable) {
            planClean(cfg, outcome.realizedRber, s);
        } else {
            planOffChipFailure(cfg, s);
            if (rng.chance(cfg.sentinelExtraReadProb)) {
                // The sentinel cells of CSB/MSB pages must be read at
                // different VREFs than the failed page: one more full
                // off-chip read before the actual retry (§III-B).
                s.phases.push_back(ReadPhase::die(t.tR));
                s.phases.push_back(
                    ReadPhase::xfer(ChannelState::UncorXfer));
                s.stats.uncorTransfers += 1;
            }
            planRetryRound(cfg, t.tR, s);
        }
        break;

      case PolicyKind::SwiftRead:
      case PolicyKind::SwiftReadPlus:
        if (outcome.decodable) {
            planClean(cfg, outcome.realizedRber, s);
        } else {
            planOffChipFailure(cfg, s);
            // Swift-Read: one NAND command, two in-die senses.
            planRetryRound(cfg, 2 * t.tR, s);
        }
        break;

      case PolicyKind::RpController:
        if (outcome.decodable && !outcome.rpPredictsRetry) {
            planClean(cfg, outcome.realizedRber, s);
        } else if (!outcome.decodable && !outcome.rpPredictsRetry) {
            // Controller RP misses: pay the full failed decode.
            planOffChipFailure(cfg, s);
            s.stats.missedPredictions += 1;
            planRetryRound(cfg, 2 * t.tR, s);
        } else {
            // Predicted uncorrectable at the controller: the page is
            // still sensed and transferred, but the long decode is cut
            // short at the controller-side syndrome check.
            s.phases.push_back(ReadPhase::die(t.tR));
            s.phases.push_back(ReadPhase::xfer(ChannelState::UncorXfer));
            s.phases.push_back(
                ReadPhase::decode(cfg.tPredController, true));
            s.stats.retried = true;
            s.stats.uncorTransfers += 1;
            if (outcome.decodable)
                s.stats.falseInDieRetries += 1;
            planRetryRound(cfg, 2 * t.tR, s);
        }
        s.stats.rpPredictions += 1;
        break;

      case PolicyKind::Rif:
        s.stats.rpPredictions += 1;
        if (outcome.rpPredictsRetry) {
            // ODEAR: prediction and Swift-Read re-read stay on-die; the
            // channel sees a single correctable transfer.
            s.phases.push_back(
                ReadPhase::die(t.tR + t.tPred + 2 * t.tR));
            s.phases.push_back(ReadPhase::xfer(ChannelState::CorXfer));
            s.phases.push_back(
                ReadPhase::decode(cfg.teccAfterRetry(), false));
            s.stats.retried = true;
            if (outcome.decodable)
                s.stats.falseInDieRetries += 1;
            else
                s.stats.avoidedTransfers += 1;
        } else if (outcome.decodable) {
            s.phases.push_back(ReadPhase::die(t.tR + t.tPred));
            s.phases.push_back(ReadPhase::xfer(ChannelState::CorXfer));
            s.phases.push_back(ReadPhase::decode(
                cfg.teccSuccess(outcome.realizedRber), false));
        } else {
            // Missed prediction (~1.3%): behaves like an off-chip
            // failure, after which the controller issues a Swift-Read;
            // the re-read page skips the RP module (§IV-C).
            s.phases.push_back(ReadPhase::die(t.tR + t.tPred));
            s.phases.push_back(ReadPhase::xfer(ChannelState::UncorXfer));
            s.phases.push_back(
                ReadPhase::decode(cfg.teccFailure(), true));
            s.stats.retried = true;
            s.stats.uncorTransfers += 1;
            s.stats.failedDecodes += 1;
            s.stats.missedPredictions += 1;
            planRetryRound(cfg, 2 * t.tR, s);
        }
        break;

      case PolicyKind::Zero:
        panic("handled above");
    }
}

} // namespace ssd
} // namespace rif
