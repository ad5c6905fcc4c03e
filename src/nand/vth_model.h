/**
 * @file
 * Analytic threshold-voltage (V_TH) model of 3D NAND flash,
 * parameterized by cell type (SLC/TLC/QLC; see nand/cell.h). Gaussian
 * V_TH states degrade with P/E cycling (oxide damage widens the
 * distributions) and retention time (charge loss shifts them downward,
 * more for higher states). Page RBER is the summed misread probability
 * across the read thresholds the page type uses; reading at a shifted
 * (near-optimal) VREF largely restores the fresh RBER, which is the
 * physical basis for read-retry and for the Swift-Read ones-count
 * estimator.
 *
 * The default-constructed model is the paper's 8-state TLC device and
 * is numerically identical to the historical hardcoded-TLC model (the
 * scenario goldens pin this). This is the physics-flavoured stand-in
 * for the paper's 160-chip real-device characterization (see DESIGN.md
 * §4 and docs/NAND_MODEL.md for the full parameter reference).
 */

#ifndef RIF_NAND_VTH_MODEL_H
#define RIF_NAND_VTH_MODEL_H

#include <array>

#include "nand/cell.h"
#include "nand/geometry.h"

namespace rif {
namespace nand {

/** Legacy TLC constants; prefer statesOf()/thresholdsOf(CellType). */
constexpr int kStates = 8;      ///< TLC: 3 bits/cell -> 8 states
constexpr int kThresholds = 7;  ///< VR1 .. VR7

/** One V_TH state as a Gaussian. */
struct StateDist
{
    double mean = 0.0;  ///< volts
    double sigma = 0.0; ///< volts
};

/**
 * Distortion model parameters. The defaults are the TLC calibration
 * (tuned against the paper's Fig. 4); use defaultDistortionParams()
 * for the per-cell-type calibrations.
 */
struct DistortionParams
{
    double eraseMean = -2.0;   ///< P0 mean
    double eraseSigma = 0.35;
    double firstProgMean = 0.6; ///< P1 mean
    double stateStep = 0.8;     ///< spacing between programmed states
    double progSigma = 0.145;   ///< fresh programmed-state sigma

    /** sigma widening per 1K P/E and per sqrt(day) of retention. */
    double sigmaPePerK = 0.10;
    double sigmaRetPerSqrtDay = 0.012;

    /** Retention charge-loss shift: k * f(state) * g(pe) * days^exp. */
    double retShiftCoeff = 0.0185;
    double retShiftExp = 0.62;
    double retShiftPePerK = 0.60;  ///< g(pe) = 1 + this * pe/1000
    double stateFactorBase = 0.20; ///< f(s) = base + (1-base) * s/(S-1)

    /** Permanent P/E-driven shift of programmed states (volts per 1K). */
    double peShiftPerK = 0.016;
};

/**
 * Per-cell-type distortion calibration. Tlc returns DistortionParams{}
 * exactly (the golden-pinned paper device); Qlc packs 16 denser,
 * tighter states into a similar voltage window with faster retention
 * drift; Slc has one widely separated programmed state.
 */
DistortionParams defaultDistortionParams(CellType cell);

/** TLC threshold subsets; prefer pageThresholds(CellType, PageType). */
const std::array<int, 2> &lsbThresholds();
const std::array<int, 3> &csbThresholds();
const std::array<int, 2> &msbThresholds();

/** Analytic multi-cell-type V_TH model. */
class VthModel
{
  public:
    /** Fixed-capacity state grid; entries beyond numStates() unused. */
    using StateArray = std::array<StateDist, kMaxStates>;

    explicit VthModel(const DistortionParams &params = DistortionParams{},
                      CellType cell = CellType::Tlc);

    /** Cell-type model with its default calibration. */
    explicit VthModel(CellType cell);

    const DistortionParams &params() const { return params_; }
    CellType cellType() const { return cell_; }
    int numStates() const { return numStates_; }
    int numThresholds() const { return numThresholds_; }

    /** State distributions after pe cycles and ret_days of retention
     *  (the first numStates() entries; the rest stay zeroed). */
    StateArray states(double pe, double ret_days) const;

    /** Factory-default read voltage for threshold i (1-based:
     *  1..numThresholds()): the fresh optimalVref(i, 0, 0), tabulated
     *  at construction. */
    double defaultVref(int i) const;

    /**
     * Near-optimal read voltage for threshold i under the given wear:
     * the minimizer of the two adjacent states' overlap (equal-density
     * crossing point, found by bisection).
     */
    double optimalVref(int i, double pe, double ret_days) const;

    /**
     * Probability that a random cell is misread across threshold i when
     * read at voltage vref (uniform state occupancy, i.e. randomized
     * data; only the two adjacent states contribute materially but all
     * states are integrated).
     */
    double thresholdErrorProb(int i, double vref, double pe,
                              double ret_days) const;

    /**
     * Page RBER for a page type when every threshold the type uses is
     * read at default + offset volts.
     */
    double pageRber(PageType type, double pe, double ret_days,
                    double vref_offset = 0.0) const;

    /** Page RBER when each threshold is read at its optimal voltage. */
    double pageRberOptimal(PageType type, double pe, double ret_days) const;

    /**
     * Fraction of cells that conduct (read as 1) at voltage vref applied
     * to threshold i — the observable Swift-Read uses: with randomized
     * data the expectation is i/numStates, and the deviation encodes the
     * V_TH shift.
     */
    double onesFraction(int i, double vref, double pe,
                        double ret_days) const;

    /**
     * Expected ones fraction with no distortion (i/numStates) — the
     * reference the Swift-Read heuristic compares against.
     */
    double expectedOnesFraction(int i) const
    {
        return i / static_cast<double>(numStates_);
    }

  private:
    DistortionParams params_;
    CellType cell_;
    int numStates_;
    int numThresholds_;
    double stateSpan_; ///< numStates - 1, the f(s) denominator
    std::array<double, kMaxStates - 1> defaultVref_{}; ///< by threshold - 1
};

} // namespace nand
} // namespace rif

#endif // RIF_NAND_VTH_MODEL_H
