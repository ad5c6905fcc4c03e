#include "odear/accuracy.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "ldpc/batch.h"

namespace rif {
namespace odear {

namespace {

const metrics::Counter mAccuracyTrials{
    "odear.rp.mc_trials", "ops", "Monte-Carlo RP accuracy trials"};
const metrics::Counter mAccuracyCorrect{
    "odear.rp.mc_correct", "ops", "trials where RP matched the decoder"};
const metrics::Counter mAccuracyFalseRetry{
    "odear.rp.mc_false_retries", "ops", "decodable trials flagged anyway"};
const metrics::Counter mAccuracyMisses{
    "odear.rp.mc_misses", "ops", "undecodable trials RP let through"};

} // namespace

std::vector<AccuracyPoint>
measureRpAccuracy(const ldpc::QcLdpcCode &code, const RpModule &rp,
                  const ldpc::MinSumDecoder &decoder,
                  AccuracySweepConfig config)
{
    if (config.rbers.empty()) {
        for (int i = 3; i <= 33; i += 2)
            config.rbers.push_back(static_cast<double>(i) * 1e-3);
    }
    RIF_ASSERT(config.trials > 0);

    const CodewordRearranger &rearranger = rp.rearranger();
    const auto trials = static_cast<std::size_t>(config.trials);

    /** Per-trial outcome: filled in parallel, reduced serially. */
    struct Trial
    {
        bool predictedRetry = false;
        bool decodable = false;
    };
    std::vector<Trial> slots(config.rbers.size() * trials);

    // The decoder goes through decodeBatch; the RP predictions of a
    // chunk's concurrently in-flight codewords stage into a per-worker
    // RpSyndromeStager and flush through the 8-lane weight kernels
    // (scalar tail on a point's last partial chunk). Both are
    // bit-identical lane for lane to their scalar forms, so the
    // confusion matrix matches the unbatched harness exactly.
    struct Scratch
    {
        ldpc::BatchDecodeWorkspace ws;
        std::array<ldpc::DecodeResult, ldpc::MinSumDecoder::kBatchLanes>
            results;
        RpSyndromeStager stager;
    };
    std::vector<Scratch> scratch(
        static_cast<std::size_t>(globalThreadCount()),
        Scratch{{}, {}, RpSyndromeStager(rp)});
    ldpc::forEachTrialChunk(
        code, config.rbers, trials, config.seed,
        [&](const ldpc::TrialChunk &c) {
            Scratch &s = scratch[static_cast<std::size_t>(c.worker)];
            s.stager.reset();
            for (std::size_t l = 0; l < c.lanes; ++l)
                s.stager.stage(rearranger.toFlashLayout(*c.words[l]));
            s.stager.flush();
            decoder.decodeBatch(c.words, c.lanes, config.rbers[c.point],
                                s.ws, s.results.data());
            Trial *t = &slots[c.point * trials + c.first];
            for (std::size_t l = 0; l < c.lanes; ++l) {
                t[l].predictedRetry = s.stager.retry(l);
                t[l].decodable = s.results[l].success;
            }
        });

    std::vector<AccuracyPoint> out;
    out.reserve(config.rbers.size());
    for (std::size_t p = 0; p < config.rbers.size(); ++p) {
        int correct = 0, false_retry = 0, miss = 0;
        int decodable_n = 0, undecodable_n = 0;
        for (std::size_t i = p * trials; i < (p + 1) * trials; ++i) {
            const Trial &s = slots[i];
            if (s.decodable)
                ++decodable_n;
            else
                ++undecodable_n;
            if (s.predictedRetry != s.decodable) {
                ++correct; // prediction matches the decoder outcome
            } else if (s.predictedRetry) {
                ++false_retry; // decodable but flagged for retry
            } else {
                ++miss; // undecodable but transferred off-chip
            }
        }
        mAccuracyTrials.add(static_cast<std::uint64_t>(config.trials));
        mAccuracyCorrect.add(static_cast<std::uint64_t>(correct));
        mAccuracyFalseRetry.add(static_cast<std::uint64_t>(false_retry));
        mAccuracyMisses.add(static_cast<std::uint64_t>(miss));
        const auto n = static_cast<double>(config.trials);
        AccuracyPoint pt;
        pt.rber = config.rbers[p];
        pt.accuracy = correct / n;
        pt.falseRetryRate =
            decodable_n ? static_cast<double>(false_retry) / decodable_n
                        : 0.0;
        pt.missRate =
            undecodable_n ? static_cast<double>(miss) / undecodable_n : 0.0;
        pt.decodeFailureRate = undecodable_n / n;
        out.push_back(pt);
    }
    return out;
}

double
accuracyAboveCapability(const std::vector<AccuracyPoint> &points,
                        double capability)
{
    double sum = 0.0;
    int n = 0;
    for (const auto &pt : points) {
        if (pt.rber > capability) {
            sum += pt.accuracy;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

RpBehaviorModel::RpBehaviorModel(double capability, double codeword_bits,
                                 double observed_bits)
    : capability_(capability),
      codewordBits_(codeword_bits),
      observedBits_(observed_bits)
{
    RIF_ASSERT(capability > 0.0 && capability < 0.5);
    RIF_ASSERT(codeword_bits >= 64.0 && observed_bits >= 64.0);
}

double
RpBehaviorModel::realizationSigma(double rber) const
{
    return std::sqrt(std::max(rber * (1.0 - rber), 1e-12) / codewordBits_);
}

double
RpBehaviorModel::observationSigma(double rber) const
{
    // The RP sees the chunk through fewer effective samples; subtract
    // the realization variance to get the *additional* observation noise.
    const double total =
        std::max(rber * (1.0 - rber), 1e-12) / observedBits_;
    const double real =
        std::max(rber * (1.0 - rber), 1e-12) / codewordBits_;
    return std::sqrt(std::max(total - real, 1e-16));
}

RpBehaviorModel::ReadOutcome
RpBehaviorModel::sample(double rber, Rng &rng) const
{
    ReadOutcome out;
    out.realizedRber =
        std::max(0.0, rng.gaussian(rber, realizationSigma(rber)));
    out.decodable = out.realizedRber <= capability_;
    const double observed =
        out.realizedRber + rng.gaussian(0.0, observationSigma(rber));
    out.rpPredictsRetry = observed > capability_;
    return out;
}

double
RpBehaviorModel::failureProbability(double rber) const
{
    const double z = (capability_ - rber) / realizationSigma(rber);
    return 0.5 * std::erfc(z / std::sqrt(2.0));
}

double
RpBehaviorModel::retryPredictionProbability(double rber) const
{
    const double sigma = std::sqrt(
        std::max(rber * (1.0 - rber), 1e-12) / observedBits_);
    const double z = (capability_ - rber) / sigma;
    return 0.5 * std::erfc(z / std::sqrt(2.0));
}

} // namespace odear
} // namespace rif
