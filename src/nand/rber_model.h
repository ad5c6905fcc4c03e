/**
 * @file
 * Fast parametric RBER model used by the SSD simulator, calibrated so the
 * median block crosses the ECC correction capability (0.0085) after the
 * retention times the paper characterizes in Fig. 4 (≈17/14/10/8 days at
 * 0/200/500/1000 P/E cycles). Per-block lognormal process variation and
 * per-page-type skew stand in for the paper's 160-chip characterization.
 */

#ifndef RIF_NAND_RBER_MODEL_H
#define RIF_NAND_RBER_MODEL_H

#include <cstdint>

#include "common/rng.h"
#include "nand/cell.h"
#include "nand/geometry.h"

namespace rif {

class Hasher;

namespace nand {

/** Parameters of the parametric RBER model. */
struct RberParams
{
    /** P/E-cycling baseline: base + coeff * (pe/1000)^exp. */
    double peBase = 0.0020;
    double peCoeff = 0.0015;
    double peExp = 1.85;

    /** Retention term: coeff * (1 + peScale * pe/1000) * days^exp. */
    double retCoeff = 9.2e-4;
    double retPeScale = 0.35;
    double retExp = 0.7;

    /** Read disturb: coeff * reads * (1 + pe/1000). */
    double readCoeff = 1.0e-8;

    /** Per-block lognormal variation sigma (process variation). */
    double blockSigma = 0.10;

    /**
     * Page-type multipliers, indexed by PageType. On TLC (CSB reads 3
     * thresholds, LSB/MSB 2) only the first kPageTypes entries are
     * reachable; the fourth serves the QLC Top page.
     */
    double typeFactor[kMaxPageTypes] = {0.92, 1.12, 0.96, 1.06};

    /** ECC correction capability in RBER (measured from our QC-LDPC). */
    double capability = 0.0085;
};

/**
 * Per-cell-type parametric calibration. Tlc returns RberParams{}
 * exactly (the Fig. 4 fit); Qlc sits higher and drifts faster, so the
 * capability crossing lands within days (~4 fresh, ~0.5 at 1K P/E);
 * Slc is margin-dominated and effectively never crosses.
 */
RberParams cellRberParams(CellType cell);

/**
 * Feed every RberParams field into `h`, in declaration order: the one
 * definition behind the artifact-cache and FTL-snapshot keys.
 */
void hashRberParams(Hasher &h, const RberParams &r);

/** Median-block RBER model. */
class RberModel
{
  public:
    explicit RberModel(const RberParams &params = RberParams{});

    const RberParams &params() const { return params_; }

    /**
     * Median-block RBER at default VREF.
     *
     * @param pe P/E cycles experienced by the block
     * @param ret_days retention age of the data in days
     * @param reads block read count since last program
     */
    double rber(double pe, double ret_days, std::uint64_t reads = 0) const;

    /** RBER for a specific page type and block variation factor. */
    double rber(double pe, double ret_days, std::uint64_t reads,
                PageType type, double block_factor) const;

    /**
     * Days of retention until the median block's RBER crosses the
     * capability at the given wear (bisection; the Fig. 4 statistic).
     */
    double retentionUntilCapability(double pe, PageType type,
                                    double block_factor = 1.0) const;

    /** Draw a per-block lognormal variation factor. */
    double sampleBlockFactor(Rng &rng) const;

  private:
    RberParams params_;
};

} // namespace nand
} // namespace rif

#endif // RIF_NAND_RBER_MODEL_H
