#include "nand/vth_model.h"

#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"

namespace rif {
namespace nand {

namespace {

const metrics::Counter mCellModels{
    "nand.cell.models", "ops", "V_TH cell models constructed"};
const metrics::Gauge mCellStates{
    "nand.cell.states", "states",
    "widest V_TH state count of any constructed cell model"};

/** Standard normal CDF. */
double
phi(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

/** Gaussian density. */
double
density(const StateDist &s, double x)
{
    const double z = (x - s.mean) / s.sigma;
    return std::exp(-0.5 * z * z) / s.sigma;
}

} // namespace

DistortionParams
defaultDistortionParams(CellType cell)
{
    switch (cell) {
      case CellType::Tlc:
        // The golden-pinned paper device: exactly the struct defaults.
        return DistortionParams{};
      case CellType::Slc: {
        // One programmed state far above the erase distribution; the
        // enormous margin makes SLC RBER negligible at any realistic
        // wear, which is what hybrid SLC-mode blocks buy.
        DistortionParams p;
        p.firstProgMean = 2.8;
        p.stateStep = 0.8; // unused beyond P1
        return p;
      }
      case CellType::Qlc: {
        // Sixteen denser, tighter states in a similar voltage window,
        // with faster charge loss (more electrons per level lost to the
        // same traps) — calibrated so a fresh page decodes but the
        // capability crossing lands within days, not weeks (RARO /
        // Cai et al. in PAPERS.md).
        DistortionParams p;
        p.eraseMean = -1.6;
        p.eraseSigma = 0.30;
        p.firstProgMean = 0.35;
        p.stateStep = 0.32;
        p.progSigma = 0.060;
        p.sigmaPePerK = 0.10;
        p.sigmaRetPerSqrtDay = 0.016;
        p.retShiftCoeff = 0.0165;
        p.retShiftPePerK = 0.70;
        return p;
      }
    }
    panic("unknown cell type");
}

const std::array<int, 2> &
lsbThresholds()
{
    static const std::array<int, 2> t{1, 5};
    return t;
}

const std::array<int, 3> &
csbThresholds()
{
    static const std::array<int, 3> t{2, 4, 6};
    return t;
}

const std::array<int, 2> &
msbThresholds()
{
    static const std::array<int, 2> t{3, 7};
    return t;
}

VthModel::VthModel(const DistortionParams &params, CellType cell)
    : params_(params),
      cell_(cell),
      numStates_(statesOf(cell)),
      numThresholds_(thresholdsOf(cell)),
      stateSpan_(static_cast<double>(statesOf(cell) - 1))
{
    mCellModels.inc();
    mCellStates.observe(static_cast<std::uint64_t>(numStates_));
    // Factory trim: the equal-density crossing of the fresh states.
    for (int i = 1; i <= numThresholds_; ++i)
        defaultVref_[static_cast<std::size_t>(i - 1)] =
            optimalVref(i, 0.0, 0.0);
}

VthModel::VthModel(CellType cell)
    : VthModel(defaultDistortionParams(cell), cell)
{
}

VthModel::StateArray
VthModel::states(double pe, double ret_days) const
{
    RIF_ASSERT(pe >= 0.0 && ret_days >= 0.0);
    const auto &p = params_;
    StateArray out{};

    const double pe_k = pe / 1000.0;
    const double sigma_scale = 1.0 + p.sigmaPePerK * pe_k +
                               p.sigmaRetPerSqrtDay * std::sqrt(ret_days);
    const double ret_mag = p.retShiftCoeff *
                           (1.0 + p.retShiftPePerK * pe_k) *
                           std::pow(ret_days, p.retShiftExp);

    for (int s = 0; s < numStates_; ++s) {
        StateDist d;
        if (s == 0) {
            // The erased state gains charge under wear (moves up) but we
            // model it as stationary: VR1 errors are dominated by P1.
            d.mean = p.eraseMean;
            d.sigma = p.eraseSigma * sigma_scale;
        } else {
            d.mean = p.firstProgMean + p.stateStep * (s - 1);
            const double f = p.stateFactorBase +
                             (1.0 - p.stateFactorBase) * s / stateSpan_;
            d.mean -= ret_mag * f;       // retention charge loss
            d.mean -= p.peShiftPerK * pe_k; // permanent trap-up shift
            d.sigma = p.progSigma * sigma_scale;
        }
        out[s] = d;
    }
    return out;
}

double
VthModel::defaultVref(int i) const
{
    RIF_ASSERT(i >= 1 && i <= numThresholds_);
    return defaultVref_[static_cast<std::size_t>(i - 1)];
}

double
VthModel::optimalVref(int i, double pe, double ret_days) const
{
    RIF_ASSERT(i >= 1 && i <= numThresholds_);
    const auto st = states(pe, ret_days);
    const StateDist &lo = st[i - 1];
    const StateDist &hi = st[i];
    double a = lo.mean, b = hi.mean;
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (a + b);
        if (density(lo, mid) > density(hi, mid))
            a = mid;
        else
            b = mid;
    }
    return 0.5 * (a + b);
}

double
VthModel::thresholdErrorProb(int i, double vref, double pe,
                             double ret_days) const
{
    RIF_ASSERT(i >= 1 && i <= numThresholds_);
    const auto st = states(pe, ret_days);
    // A cell in state s < i must lie below vref; a cell in state s >= i
    // must lie above it. Uniform occupancy of 1/numStates per state.
    double err = 0.0;
    for (int s = 0; s < numStates_; ++s) {
        const double below = phi((vref - st[s].mean) / st[s].sigma);
        if (s < i)
            err += (1.0 - below) / numStates_;
        else
            err += below / numStates_;
    }
    return err;
}

double
VthModel::pageRber(PageType type, double pe, double ret_days,
                   double vref_offset) const
{
    double r = 0.0;
    for (int t : pageThresholds(cell_, type)) {
        r += thresholdErrorProb(t, defaultVref(t) + vref_offset, pe,
                                ret_days);
    }
    return r;
}

double
VthModel::pageRberOptimal(PageType type, double pe, double ret_days) const
{
    double r = 0.0;
    for (int t : pageThresholds(cell_, type)) {
        r += thresholdErrorProb(t, optimalVref(t, pe, ret_days), pe,
                                ret_days);
    }
    return r;
}

double
VthModel::onesFraction(int i, double vref, double pe, double ret_days) const
{
    RIF_ASSERT(i >= 1 && i <= numThresholds_);
    const auto st = states(pe, ret_days);
    double ones = 0.0;
    for (int s = 0; s < numStates_; ++s)
        ones += phi((vref - st[s].mean) / st[s].sigma) / numStates_;
    return ones;
}

} // namespace nand
} // namespace rif
