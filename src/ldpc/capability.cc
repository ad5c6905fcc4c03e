#include "ldpc/capability.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"
#include "ldpc/batch.h"
#include "ldpc/channel.h"

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
    Rng master(config.seed);
    std::vector<CapabilityPoint> out;
    out.reserve(config.rbers.size());

    /** Per-trial outcome slot: written by one index, reduced serially. */
    struct Trial
    {
        bool failed = false;
        int iterations = 0;
        std::size_t syndromeWeight = 0;
        std::size_t prunedWeight = 0;
    };
    const auto trials = static_cast<std::size_t>(config.trials);
    std::vector<Trial> slots(trials);

    // Trials run through the batched SoA datapath (batch.h) in fixed
    // index-based chunks: chunk c always covers trials [cB, cB + B), so
    // batch composition — and with it every weight and decode outcome —
    // is independent of the thread count. Per-trial RNG streams are
    // forked before the parallel region and the batched kernels are
    // bit-identical lane for lane to their scalar forms, so the results
    // match the unbatched harness exactly.
    constexpr std::size_t kBatch = 8;
    const std::size_t chunks = (trials + kBatch - 1) / kBatch;
    struct Scratch
    {
        BatchDecodeWorkspace ws;
        CodewordBatch batch; ///< corrupted words, one lane per trial
        CodewordBatch synd;  ///< syndrome accumulator
        std::vector<BitVec> words;
        std::vector<const BitVec *> ptrs;
        std::vector<DecodeResult> results;
        std::vector<std::size_t> weights, pruned;
    };
    std::vector<Scratch> scratch(globalThreadCount());
    for (Scratch &s : scratch) {
        s.words.resize(kBatch);
        s.ptrs.resize(kBatch);
        s.results.resize(kBatch);
        s.weights.resize(kBatch);
        s.pruned.resize(kBatch);
    }

    for (double rber : config.rbers) {
        CapabilityPoint pt;
        pt.rber = rber;
        // Stream i is forked before the parallel region, so results are
        // bit-identical at any thread count.
        std::vector<Rng> streams = forkStreams(master, trials);
        parallelForWorker(chunks, [&](std::size_t c, int worker) {
            const std::size_t begin = c * kBatch;
            const std::size_t lanes = std::min(kBatch, trials - begin);
            Scratch &s = scratch[worker];
            s.batch.reset(code.params().n(), lanes);
            for (std::size_t l = 0; l < lanes; ++l) {
                Rng &rng = streams[begin + l];
                s.words[l] = code.encode(randomData(code.params().k(), rng));
                injectErrors(s.words[l], rber, rng);
                s.batch.setLane(l, s.words[l]);
                s.ptrs[l] = &s.words[l];
            }
            syndromeWeightBatch(code, s.batch, s.synd, s.weights.data());
            prunedSyndromeWeightBatch(code, s.batch, s.synd,
                                      s.pruned.data());
            decoder.decodeBatch(s.ptrs.data(), lanes, rber, s.ws,
                                s.results.data());
            for (std::size_t l = 0; l < lanes; ++l) {
                Trial &t = slots[begin + l];
                t.failed = !s.results[l].success;
                t.iterations = s.results[l].iterations;
                t.syndromeWeight = s.weights[l];
                t.prunedWeight = s.pruned[l];
            }
            noteBatchFormed(lanes, kBatch);
        });

        std::uint64_t failures = 0;
        double iter_sum = 0.0, sw_sum = 0.0, psw_sum = 0.0;
        for (const Trial &s : slots) {
            failures += s.failed;
            iter_sum += s.iterations;
            sw_sum += static_cast<double>(s.syndromeWeight);
            psw_sum += static_cast<double>(s.prunedWeight);
        }
        const auto n = static_cast<double>(config.trials);
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
