#include "ldpc/capability.h"

#include <array>

#include "common/logging.h"
#include "common/parallel.h"
#include "ldpc/batch.h"

namespace rif {
namespace ldpc {

CapabilitySweepConfig
defaultSweep()
{
    CapabilitySweepConfig cfg;
    for (int i = 1; i <= 16; ++i)
        cfg.rbers.push_back(static_cast<double>(i) * 1e-3);
    return cfg;
}

std::vector<CapabilityPoint>
measureCapability(const QcLdpcCode &code, const MinSumDecoder &decoder,
                  const CapabilitySweepConfig &config)
{
    RIF_ASSERT(config.trials > 0);
    const auto trials = static_cast<std::size_t>(config.trials);

    /** Per-trial outcome slot: written by one lane, reduced serially. */
    struct Trial
    {
        bool failed = false;
        int iterations = 0;
        std::size_t syndromeWeight = 0;
        std::size_t prunedWeight = 0;
    };
    std::vector<Trial> slots(config.rbers.size() * trials);

    // The batched kernels are bit-identical lane for lane to their
    // scalar forms, so the results match the unbatched harness exactly.
    constexpr std::size_t kLanes = MinSumDecoder::kBatchLanes;
    struct Scratch
    {
        BatchDecodeWorkspace ws;
        CodewordBatch batch; ///< corrupted words, one lane per trial
        CodewordBatch synd;  ///< syndrome accumulator
        std::array<DecodeResult, kLanes> results;
        std::array<std::size_t, kLanes> weights, pruned;
    };
    std::vector<Scratch> scratch(
        static_cast<std::size_t>(globalThreadCount()));
    forEachTrialChunk(
        code, config.rbers, trials, config.seed, [&](const TrialChunk &c) {
            Scratch &s = scratch[static_cast<std::size_t>(c.worker)];
            s.batch.reset(code.params().n(), c.lanes);
            for (std::size_t l = 0; l < c.lanes; ++l)
                s.batch.setLane(l, *c.words[l]);
            syndromeWeightBatch(code, s.batch, s.synd, s.weights.data());
            prunedSyndromeWeightBatch(code, s.batch, s.synd,
                                      s.pruned.data());
            decoder.decodeBatch(c.words, c.lanes, config.rbers[c.point],
                                s.ws, s.results.data());
            Trial *t = &slots[c.point * trials + c.first];
            for (std::size_t l = 0; l < c.lanes; ++l) {
                t[l].failed = !s.results[l].success;
                t[l].iterations = s.results[l].iterations;
                t[l].syndromeWeight = s.weights[l];
                t[l].prunedWeight = s.pruned[l];
            }
        });

    std::vector<CapabilityPoint> out;
    out.reserve(config.rbers.size());
    for (std::size_t p = 0; p < config.rbers.size(); ++p) {
        std::uint64_t failures = 0;
        double iter_sum = 0.0, sw_sum = 0.0, psw_sum = 0.0;
        for (std::size_t t = p * trials; t < (p + 1) * trials; ++t) {
            failures += slots[t].failed;
            iter_sum += slots[t].iterations;
            sw_sum += static_cast<double>(slots[t].syndromeWeight);
            psw_sum += static_cast<double>(slots[t].prunedWeight);
        }
        const auto n = static_cast<double>(config.trials);
        CapabilityPoint pt;
        pt.rber = config.rbers[p];
        pt.failureProbability = static_cast<double>(failures) / n;
        pt.avgIterations = iter_sum / n;
        pt.avgSyndromeWeight = sw_sum / n;
        pt.avgPrunedSyndromeWeight = psw_sum / n;
        out.push_back(pt);
    }
    return out;
}

double
estimateCapability(const std::vector<CapabilityPoint> &points,
                   double failure_threshold)
{
    for (const auto &pt : points)
        if (pt.failureProbability >= failure_threshold)
            return pt.rber;
    return 0.0;
}

double
syndromeWeightAt(const std::vector<CapabilityPoint> &points, double rber,
                 bool pruned)
{
    RIF_ASSERT(!points.empty());
    auto value = [&](const CapabilityPoint &pt) {
        return pruned ? pt.avgPrunedSyndromeWeight : pt.avgSyndromeWeight;
    };
    if (rber <= points.front().rber)
        return value(points.front());
    for (std::size_t i = 1; i < points.size(); ++i) {
        if (rber <= points[i].rber) {
            const auto &a = points[i - 1];
            const auto &b = points[i];
            const double f = (rber - a.rber) / (b.rber - a.rber);
            return value(a) + f * (value(b) - value(a));
        }
    }
    return value(points.back());
}

} // namespace ldpc
} // namespace rif
