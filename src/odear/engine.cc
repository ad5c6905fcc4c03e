#include "odear/engine.h"

#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "ldpc/channel.h"

namespace rif {
namespace odear {

namespace {

const metrics::Counter mPipelineReads{
    "odear.functional.reads", "ops", "bit-level pipeline page reads"};
const metrics::Counter mPipelineFlagged{
    "odear.functional.flagged", "ops",
    "pages the RP flagged for in-die retry"};
const metrics::Counter mPipelineDecodeFailures{
    "odear.functional.decode_failures", "ops",
    "pipeline reads failing controller decode"};

} // namespace

FunctionalPipeline::FunctionalPipeline(const ldpc::QcLdpcCode &code,
                                       const nand::VthModel &vth,
                                       const RpConfig &rp_config)
    : code_(code),
      vth_(vth),
      rearranger_(code),
      rp_(code, rp_config),
      rvs_(vth),
      decoder_(code, 20)
{
}

ProgrammedPage
FunctionalPipeline::program(const std::vector<BitVec> &payloads,
                            std::uint64_t page_seed,
                            nand::PageType type) const
{
    RIF_ASSERT(!payloads.empty());
    ProgrammedPage page;
    page.scrambleSeed = page_seed;
    page.type = type;
    page.flashCodewords.reserve(payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        RIF_ASSERT(payloads[i].size() == code_.params().k());
        // Scramble (per-codeword keystream), encode, rearrange.
        BitVec data = payloads[i];
        nand::Randomizer(page_seed + i).apply(data);
        page.flashCodewords.push_back(
            rearranger_.toFlashLayout(code_.encode(data)));
    }
    return page;
}

std::vector<BitVec>
FunctionalPipeline::senseWithErrors(const ProgrammedPage &page,
                                    double rber, Rng &rng) const
{
    std::vector<BitVec> sensed;
    sensed.reserve(page.flashCodewords.size());
    for (const BitVec &stored : page.flashCodewords) {
        sensed.push_back(stored);
        ldpc::injectErrors(sensed.back(), rber, rng);
    }
    return sensed;
}

FunctionalReadResult
FunctionalPipeline::read(const ProgrammedPage &page, double pe,
                         double ret_days, Rng &rng) const
{
    FunctionalReadResult out;
    mPipelineReads.inc();

    // 1. Sense at the default read voltages; the V_TH model gives the
    //    wear-appropriate raw bit error rate.
    out.firstSenseRber = vth_.pageRber(page.type, pe, ret_days);
    std::vector<BitVec> sensed =
        senseWithErrors(page, out.firstSenseRber, rng);

    // 2. On-die RP prediction on the configured chunk (one codeword).
    const int chunk = rp_.config().chunkIndex;
    RIF_ASSERT(chunk >= 0 &&
               chunk < static_cast<int>(sensed.size()));
    out.chunkSyndromeWeight = rp_.computedWeight(sensed[chunk]);
    out.predictedUncorrectable = rp_.predictRetry(sensed[chunk]);

    // 3. When flagged, the RVS selects near-optimal voltages and the
    //    page is re-sensed in-die; the re-read skips the RP (§IV-C).
    if (out.predictedUncorrectable) {
        mPipelineFlagged.inc();
        const VrefSelection sel =
            rvs_.select(page.type, pe, ret_days, rng);
        out.reReadRber = sel.predictedRber;
        sensed = senseWithErrors(page, out.reReadRber, rng);
        out.retriedOnDie = true;
    }

    // 4. Controller side: restore the layout, decode, descramble.
    out.decodeSucceeded = true;
    out.payloads.clear();
    for (std::size_t i = 0; i < sensed.size(); ++i) {
        const BitVec restored = rearranger_.toControllerLayout(sensed[i]);
        const double assumed =
            out.retriedOnDie ? out.reReadRber : out.firstSenseRber;
        const ldpc::DecodeResult res = decoder_.decode(restored, assumed);
        if (!res.success) {
            out.decodeSucceeded = false;
            break;
        }
        BitVec data = res.word.slice(0, code_.params().k());
        nand::Randomizer(page.scrambleSeed + i).apply(data);
        out.payloads.push_back(std::move(data));
    }
    if (!out.decodeSucceeded) {
        mPipelineDecodeFailures.inc();
        out.payloads.clear();
    }
    return out;
}

} // namespace odear
} // namespace rif
