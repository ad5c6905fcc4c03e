#include "odear/accuracy.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "ldpc/batch.h"
#include "ldpc/channel.h"

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
    Rng master(config.seed);
    std::vector<AccuracyPoint> out;
    out.reserve(config.rbers.size());

    /** Per-trial outcome: filled in parallel, reduced serially. */
    struct Trial
    {
        bool predictedRetry = false;
        bool decodable = false;
    };
    const auto trials = static_cast<std::size_t>(config.trials);
    std::vector<Trial> slots(trials);

    // Both halves of each trial run through the batched SoA datapath in
    // fixed index-based chunks (chunk c = trials [cB, cB + B)), so
    // batch composition is thread-count independent. The decoder goes
    // through decodeBatch; the RP predictions of a chunk's concurrently
    // in-flight codewords stage into a per-worker RpSyndromeStager and
    // flush through the 8-lane weight kernels (scalar tail on the last
    // partial chunk). Both are bit-identical lane for lane to their
    // scalar forms, so the confusion matrix matches the unbatched
    // harness exactly.
    constexpr std::size_t kBatch = 8;
    const std::size_t chunks = (trials + kBatch - 1) / kBatch;
    struct Scratch
    {
        ldpc::BatchDecodeWorkspace ws;
        std::vector<BitVec> words;
        std::vector<const BitVec *> ptrs;
        std::vector<ldpc::DecodeResult> results;
    };
    std::vector<Scratch> scratch(globalThreadCount());
    std::vector<RpSyndromeStager> stagers;
    stagers.reserve(scratch.size());
    for (Scratch &s : scratch) {
        s.words.resize(kBatch);
        s.ptrs.resize(kBatch);
        s.results.resize(kBatch);
        stagers.emplace_back(rp);
    }

    for (double rber : config.rbers) {
        AccuracyPoint pt;
        pt.rber = rber;
        // Per-trial RNG streams forked serially so counters are identical
        // at any thread count.
        std::vector<Rng> streams = forkStreams(master, trials);
        parallelForWorker(chunks, [&](std::size_t c, int worker) {
            const std::size_t begin = c * kBatch;
            const std::size_t lanes = std::min(kBatch, trials - begin);
            Scratch &s = scratch[worker];
            RpSyndromeStager &stager = stagers[worker];
            stager.reset();
            for (std::size_t l = 0; l < lanes; ++l) {
                Rng &rng = streams[begin + l];
                s.words[l] =
                    code.encode(ldpc::randomData(code.params().k(), rng));
                ldpc::injectErrors(s.words[l], rber, rng);
                stager.stage(rearranger.toFlashLayout(s.words[l]));
                s.ptrs[l] = &s.words[l];
            }
            stager.flush();
            decoder.decodeBatch(s.ptrs.data(), lanes, rber, s.ws,
                                s.results.data());
            for (std::size_t l = 0; l < lanes; ++l) {
                slots[begin + l].predictedRetry = stager.retry(l);
                slots[begin + l].decodable = s.results[l].success;
            }
            ldpc::noteBatchFormed(lanes, kBatch);
        });

        int correct = 0, false_retry = 0, miss = 0;
        int decodable_n = 0, undecodable_n = 0;
        for (const Trial &s : slots) {
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
