/**
 * @file
 * The read-retry predictor (RP) of the ODEAR engine: a syndrome-weight
 * thresholding heuristic with the paper's two approximations (chunk-based
 * prediction over one 4-KiB codeword, syndrome pruning to the first t
 * checks) plus a cycle-level latency model of the 128-bit datapath
 * (Fig. 16) and the synthesis-derived PPA constants (§VI-C).
 */

#ifndef RIF_ODEAR_RP_MODULE_H
#define RIF_ODEAR_RP_MODULE_H

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "ldpc/batch.h"
#include "ldpc/code.h"
#include "odear/rearrange.h"

namespace rif {
namespace odear {

/** RP configuration. */
struct RpConfig
{
    bool useChunk = true;     ///< inspect one codeword, not the page
    bool usePruning = true;   ///< first t syndromes only
    /**
     * Correctability threshold rho_s on the computed syndrome weight;
     * calibrate with calibrateThreshold() (the paper picks the average
     * syndrome weight at the capability RBER, Fig. 10).
     */
    std::size_t rhoS = 224;
    int chunkIndex = 0;       ///< which codeword of the page to inspect

    /** Datapath parameters for the latency model. */
    int wordBits = 128;          ///< page-buffer word width
    double clockMhz = 100.0;     ///< RP operating frequency
    double bufferReadUsPerKiB = 0.625; ///< page-buffer fetch, us per KiB
};

/** Synthesis-derived overhead constants (paper §VI-C). */
struct RpOverhead
{
    double areaMm2 = 0.012;         ///< 130 nm, 100 MHz
    double powerMw = 1.28;
    double energyPerPredictionNj = 3.2;
    double energySavedPerAvoidedTransferNj = 907.0;
    double flashDieAreaMm2 = 101.0; ///< reference die area [72]
};

/** Functional + timing model of the RP module. */
class RpModule
{
  public:
    RpModule(const ldpc::QcLdpcCode &code, const RpConfig &config);

    const RpConfig &config() const { return config_; }

    /** The module's own layout transform (shared with callers). */
    const CodewordRearranger &rearranger() const { return rearranger_; }

    /**
     * Predict whether an off-chip LDPC engine could decode the sensed
     * codeword (given in flash layout when rearrangement is in use).
     *
     * @return true when a read-retry should be performed on-die
     */
    bool predictRetry(const BitVec &flash_codeword) const;

    /** Syndrome weight actually computed by the configured datapath. */
    std::size_t computedWeight(const BitVec &flash_codeword) const;

    /**
     * Prediction latency (tPRED): dominated by fetching the inspected
     * chunk from the page buffer; the XOR/popcount pipeline overlaps
     * with the fetch (paper: ~2.5 us for a 4-KiB chunk).
     */
    Tick predictionLatency(std::uint64_t chunk_bytes) const;

    /** Latency with the configured chunk (one codeword payload). */
    Tick predictionLatency() const;

    /**
     * Calibrate rho_s: average computed weight of codewords whose RBER
     * equals the capability (Fig. 10's operating point).
     */
    static std::size_t calibrateThreshold(const ldpc::QcLdpcCode &code,
                                          const RpConfig &config,
                                          double capability_rber,
                                          int trials, std::uint64_t seed);

    /** The code this module predicts for (shared with the stager). */
    const ldpc::QcLdpcCode &code() const { return code_; }

  private:
    const ldpc::QcLdpcCode &code_;
    RpConfig config_;
    CodewordRearranger rearranger_;
};

/**
 * Cross-page staging buffer for RP syndrome computation. Gathers the
 * sensed (flash-layout) codewords of reads in flight at the same tick
 * and pushes them through the 8-lane batched weight kernels instead of
 * one codeword at a time: every full group of kLanes staged words
 * flushes through CodewordRearranger::onDieSyndromeWeightBatch (with
 * pruning) or ldpc::syndromeWeightBatch (without), and flush() finishes
 * any partial tail group through the scalar datapath. Each slot's
 * weight — and therefore its retry decision — is bit-identical to
 * RpModule::computedWeight of that codeword, and results are indexed by
 * staging order, so decision order is preserved exactly.
 *
 * Zero steady-state allocation: the lane batch, the syndrome scratch
 * and the result vector are grown on first use and reused across
 * reset() cycles. Not thread-safe; use one stager per worker (as the
 * accuracy harness does).
 */
class RpSyndromeStager
{
  public:
    /** Lane width of the batched weight kernels (ldpc/batch.h). */
    static constexpr std::size_t kLanes = 8;

    explicit RpSyndromeStager(const RpModule &rp);

    /**
     * Stage one sensed codeword (flash layout, as handed to
     * predictRetry). Returns the slot index — the 0-based staging
     * order — used to read the result back after flush(). A full
     * group flushes through the batched kernel immediately.
     */
    std::size_t stage(const BitVec &flash_codeword);

    /** Compute any partially-staged tail through the scalar datapath;
     *  afterwards every staged slot has a result. */
    void flush();

    /** Codewords staged since the last reset(). */
    std::size_t staged() const { return staged_; }

    /** Computed weight of a slot (valid after flush()). */
    std::size_t weight(std::size_t slot) const;

    /** The retry decision for a slot: weight > rho_s. */
    bool retry(std::size_t slot) const
    {
        return weight(slot) > rp_->config().rhoS;
    }

    /** Drop all slots and results; capacity is retained. */
    void reset();

  private:
    void flushGroup();

    const RpModule *rp_;
    ldpc::CodewordBatch batch_;
    ldpc::CodewordBatch synd_;
    std::vector<std::size_t> weights_;
    std::size_t staged_ = 0;
    std::size_t inGroup_ = 0;
    BitVec laneScratch_;
};

} // namespace odear
} // namespace rif

#endif // RIF_ODEAR_RP_MODULE_H
