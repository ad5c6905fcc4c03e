/**
 * @file
 * Bit-level functional model of the full RiF data path — the complement
 * to the timing-only SSD simulator. A 16-KiB page is programmed through
 * the controller pipeline (randomize, LDPC-encode, rearrange into flash
 * layout), sensed back with V_TH-model-driven bit errors, screened by
 * the on-die RP module, optionally re-read at RVS-selected voltages,
 * and finally restored, decoded and descrambled at the controller. The
 * tests use it to prove end-to-end data integrity under the RiF scheme.
 */

#ifndef RIF_ODEAR_ENGINE_H
#define RIF_ODEAR_ENGINE_H

#include <vector>

#include "common/rng.h"
#include "ldpc/decoder.h"
#include "nand/randomizer.h"
#include "nand/vth_model.h"
#include "odear/rearrange.h"
#include "odear/rp_module.h"
#include "odear/rvs_module.h"

namespace rif {
namespace odear {

/** A page as stored in the flash array (rearranged, scrambled). */
struct ProgrammedPage
{
    std::vector<BitVec> flashCodewords; ///< one per 4-KiB payload
    std::uint64_t scrambleSeed = 0;
    nand::PageType type = nand::PageType::Lsb;
};

/** Outcome of one functional read through the ODEAR engine. */
struct FunctionalReadResult
{
    bool predictedUncorrectable = false; ///< RP verdict on the chunk
    bool retriedOnDie = false;           ///< RVS re-read performed
    bool decodeSucceeded = false;        ///< all codewords decoded
    std::size_t chunkSyndromeWeight = 0; ///< as computed on-die
    double firstSenseRber = 0.0;         ///< error rate injected
    double reReadRber = 0.0;             ///< after RVS selection (if any)
    /** Recovered payloads (valid when decodeSucceeded). */
    std::vector<BitVec> payloads;
};

/**
 * The functional RiF pipeline for one flash wordline. All components
 * are the same objects the rest of the library uses; nothing here is
 * a behavioural shortcut.
 */
class FunctionalPipeline
{
  public:
    /**
     * @param code the ECC code (one codeword per 4-KiB payload)
     * @param vth V_TH model of the die being modelled
     * @param rp_config RP configuration (threshold, approximations)
     */
    FunctionalPipeline(const ldpc::QcLdpcCode &code,
                       const nand::VthModel &vth,
                       const RpConfig &rp_config);

    /**
     * Controller program path: scramble each payload with the page
     * keystream, LDPC-encode, rotate into the flash layout.
     *
     * @param payloads k-bit payloads (codewordsPerPage of them)
     * @param page_seed per-page scramble seed
     * @param type page type (determines the read thresholds)
     */
    ProgrammedPage program(const std::vector<BitVec> &payloads,
                           std::uint64_t page_seed,
                           nand::PageType type) const;

    /**
     * Read through the ODEAR engine: sense at default VREF with
     * wear-appropriate bit errors, run the RP prediction on the
     * configured chunk, re-read via RVS when flagged, then restore the
     * layout, decode every codeword and descramble.
     *
     * @param page the programmed page
     * @param pe block P/E cycles
     * @param ret_days retention age of the data
     * @param rng error-injection and counter-noise randomness
     */
    FunctionalReadResult read(const ProgrammedPage &page, double pe,
                              double ret_days, Rng &rng) const;

    /** The RP module in use (for threshold/latency queries). */
    const RpModule &rp() const { return rp_; }

  private:
    /** Sense the stored bits through a BSC at the given RBER. */
    std::vector<BitVec> senseWithErrors(const ProgrammedPage &page,
                                        double rber, Rng &rng) const;

    const ldpc::QcLdpcCode &code_;
    const nand::VthModel &vth_;
    CodewordRearranger rearranger_;
    RpModule rp_;
    RvsModule rvs_;
    ldpc::MinSumDecoder decoder_;
};

} // namespace odear
} // namespace rif

#endif // RIF_ODEAR_ENGINE_H
