#include "nand/rber_model.h"

#include <cmath>

#include "common/hash.h"
#include "common/logging.h"

namespace rif {
namespace nand {

RberParams
cellRberParams(CellType cell)
{
    switch (cell) {
      case CellType::Tlc:
        // The golden-pinned Fig. 4 fit: exactly the struct defaults.
        return RberParams{};
      case CellType::Slc: {
        // The huge state margin leaves almost nothing for wear or
        // retention to erode; SLC-mode blocks effectively never retry.
        RberParams p;
        p.peBase = 1.0e-6;
        p.peCoeff = 5.0e-6;
        p.retCoeff = 1.0e-7;
        p.readCoeff = 1.0e-9;
        p.blockSigma = 0.08;
        for (double &f : p.typeFactor)
            f = 1.0;
        return p;
      }
      case CellType::Qlc: {
        // Denser states start closer to the capability and drift
        // faster: the median block crosses after ~8 days fresh and
        // ~1.5 at 1K P/E — about half the TLC window, matching the
        // QLC V_TH calibration (RARO's conversion motivation).
        RberParams p;
        p.peBase = 0.0022;
        p.peCoeff = 0.0026;
        p.retCoeff = 1.4e-3;
        p.retExp = 0.72;
        p.retPeScale = 0.90;
        p.blockSigma = 0.12;
        p.optimalVrefFactor = 0.35;
        return p;
      }
    }
    panic("unknown cell type");
}

void
hashRberParams(Hasher &h, const RberParams &r)
{
    h.add(r.peBase);
    h.add(r.peCoeff);
    h.add(r.peExp);
    h.add(r.retCoeff);
    h.add(r.retPeScale);
    h.add(r.retExp);
    h.add(r.readCoeff);
    h.add(r.blockSigma);
    for (double f : r.typeFactor)
        h.add(f);
    h.add(r.capability);
    h.add(r.optimalVrefFactor);
}

RberModel::RberModel(const RberParams &params)
    : params_(params)
{
}

double
RberModel::rber(double pe, double ret_days, std::uint64_t reads) const
{
    RIF_ASSERT(pe >= 0.0 && ret_days >= 0.0);
    const auto &p = params_;
    const double pe_k = pe / 1000.0;
    const double base = p.peBase + p.peCoeff * std::pow(pe_k, p.peExp);
    const double ret = p.retCoeff * (1.0 + p.retPeScale * pe_k) *
                       std::pow(ret_days, p.retExp);
    const double disturb =
        p.readCoeff * static_cast<double>(reads) * (1.0 + pe_k);
    return base + ret + disturb;
}

double
RberModel::rber(double pe, double ret_days, std::uint64_t reads,
                PageType type, double block_factor) const
{
    return rber(pe, ret_days, reads) *
           params_.typeFactor[static_cast<int>(type)] * block_factor;
}

double
RberModel::retentionUntilCapability(double pe, PageType type,
                                    double block_factor) const
{
    const double cap = params_.capability;
    if (rber(pe, 0.0, 0, type, block_factor) >= cap)
        return 0.0;
    double lo = 0.0, hi = 1.0;
    while (rber(pe, hi, 0, type, block_factor) < cap) {
        hi *= 2.0;
        if (hi > 4096.0)
            return hi; // never crosses within any realistic window
    }
    for (int i = 0; i < 60; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (rber(pe, mid, 0, type, block_factor) < cap)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

double
RberModel::sampleBlockFactor(Rng &rng) const
{
    // Median 1.0: lognormal with mu = 0.
    return rng.lognormal(0.0, params_.blockSigma);
}

} // namespace nand
} // namespace rif
