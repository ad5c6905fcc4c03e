#include "odear/rp_module.h"

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "ldpc/batch.h"

namespace rif {
namespace odear {

namespace {

const metrics::Counter mStageBatched{
    "odear.rp.stage.batched", "ops",
    "RP weights computed through full 8-lane staged batches"};
const metrics::Counter mStageTail{
    "odear.rp.stage.tail", "ops",
    "RP weights computed by the scalar datapath from a partial "
    "staged group"};

} // namespace

RpModule::RpModule(const ldpc::QcLdpcCode &code, const RpConfig &config)
    : code_(code), config_(config), rearranger_(code)
{
}

std::size_t
RpModule::computedWeight(const BitVec &flash_codeword) const
{
    if (config_.usePruning)
        return rearranger_.onDieSyndromeWeight(flash_codeword);
    // Without pruning the die would need the original layout back to
    // evaluate every block row; model that as restoring and computing
    // the full syndrome.
    const BitVec restored = rearranger_.toControllerLayout(flash_codeword);
    return code_.syndromeWeight(restored);
}

bool
RpModule::predictRetry(const BitVec &flash_codeword) const
{
    return computedWeight(flash_codeword) > config_.rhoS;
}

Tick
RpModule::predictionLatency(std::uint64_t chunk_bytes) const
{
    // The pipeline (Fig. 16) overlaps XOR and weight counting with the
    // page-buffer fetch, so fetch time dominates; add one drain of the
    // final word through the two pipeline stages.
    const double fetch_us = config_.bufferReadUsPerKiB *
                            static_cast<double>(chunk_bytes) / 1024.0;
    const double drain_us = 2.0 / config_.clockMhz; // two stages
    return usToTicks(fetch_us + drain_us);
}

Tick
RpModule::predictionLatency() const
{
    const auto &p = code_.params();
    const std::uint64_t chunk_bytes =
        config_.useChunk ? p.k() / 8 : p.k() / 8 * 4;
    return predictionLatency(chunk_bytes);
}

std::size_t
RpModule::calibrateThreshold(const ldpc::QcLdpcCode &code,
                             const RpConfig &config, double capability_rber,
                             int trials, std::uint64_t seed)
{
    RIF_ASSERT(trials > 0);
    RpModule rp(code, config);
    // Reuse the module's own layout transform rather than constructing a
    // second (identical) rearranger.
    const CodewordRearranger &rearranger = rp.rearranger();
    const auto trials_n = static_cast<std::size_t>(trials);
    std::vector<std::size_t> weights(trials_n, 0);
    // A one-point trial grid. With pruning the lanes hold flash-layout
    // words and the rearranger's batched on-die datapath computes the
    // weights; without pruning computedWeight is
    // syndromeWeight(toControllerLayout(toFlashLayout(w))) == the full
    // syndrome weight of w itself, so the lanes hold the codewords
    // directly. Either way each lane's value is bit-identical to the
    // scalar computedWeight of that trial.
    struct Scratch
    {
        ldpc::CodewordBatch batch;
        ldpc::CodewordBatch synd;
    };
    std::vector<Scratch> scratch(
        static_cast<std::size_t>(globalThreadCount()));
    ldpc::forEachTrialChunk(
        code, {capability_rber}, trials_n, seed,
        [&](const ldpc::TrialChunk &c) {
            Scratch &s = scratch[static_cast<std::size_t>(c.worker)];
            s.batch.reset(code.params().n(), c.lanes);
            for (std::size_t l = 0; l < c.lanes; ++l) {
                if (config.usePruning)
                    s.batch.setLane(l, rearranger.toFlashLayout(*c.words[l]));
                else
                    s.batch.setLane(l, *c.words[l]);
            }
            std::size_t *out = &weights[c.first];
            if (config.usePruning)
                rearranger.onDieSyndromeWeightBatch(s.batch, s.synd, out);
            else
                ldpc::syndromeWeightBatch(code, s.batch, s.synd, out);
        });
    std::size_t sum = 0;
    for (std::size_t w : weights)
        sum += w;
    return sum / static_cast<std::size_t>(trials);
}

RpSyndromeStager::RpSyndromeStager(const RpModule &rp) : rp_(&rp)
{
    batch_.reset(rp.code().params().n(), kLanes);
}

std::size_t
RpSyndromeStager::stage(const BitVec &flash_codeword)
{
    // With pruning the on-die batch kernel consumes flash-layout lanes
    // directly. Without pruning computedWeight is the full syndrome of
    // the restored layout, so restore per lane (the transform is not
    // part of the weight kernel) and batch the syndrome itself.
    if (rp_->config().usePruning) {
        batch_.setLane(inGroup_, flash_codeword);
    } else {
        laneScratch_ = rp_->rearranger().toControllerLayout(flash_codeword);
        batch_.setLane(inGroup_, laneScratch_);
    }
    ++inGroup_;
    const std::size_t slot = staged_++;
    if (inGroup_ == kLanes)
        flushGroup();
    return slot;
}

void
RpSyndromeStager::flushGroup()
{
    weights_.resize(staged_);
    std::size_t *out = weights_.data() + staged_ - kLanes;
    if (rp_->config().usePruning)
        rp_->rearranger().onDieSyndromeWeightBatch(batch_, synd_, out);
    else
        ldpc::syndromeWeightBatch(rp_->code(), batch_, synd_, out);
    ldpc::noteBatchFormed(kLanes, kLanes);
    mStageBatched.add(kLanes);
    inGroup_ = 0;
}

void
RpSyndromeStager::flush()
{
    if (inGroup_ == 0)
        return;
    // Partial tail: too few lanes to fill the vector kernel, so each
    // staged word takes the scalar datapath. Lanes hold flash layout
    // when pruning (the on-die weight) and the restored layout when
    // not (the full syndrome weight) — either way bit-identical to
    // computedWeight of the original codeword.
    weights_.resize(staged_);
    const std::size_t tail = inGroup_;
    for (std::size_t l = 0; l < tail; ++l) {
        batch_.extractLane(l, laneScratch_);
        weights_[staged_ - tail + l] =
            rp_->config().usePruning
                ? rp_->rearranger().onDieSyndromeWeight(laneScratch_)
                : rp_->code().syndromeWeight(laneScratch_);
    }
    mStageTail.add(static_cast<std::uint64_t>(tail));
    inGroup_ = 0;
}

std::size_t
RpSyndromeStager::weight(std::size_t slot) const
{
    RIF_ASSERT(slot < weights_.size(), "read before flush()");
    return weights_[slot];
}

void
RpSyndromeStager::reset()
{
    staged_ = 0;
    inGroup_ = 0;
    weights_.clear();
}

} // namespace odear
} // namespace rif
