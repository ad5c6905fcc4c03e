#include "ssd/config.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rif {
namespace ssd {

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Zero:
        return "SSDzero";
      case PolicyKind::FixedSequence:
        return "CONV";
      case PolicyKind::IdealOffChip:
        return "SSDone";
      case PolicyKind::Sentinel:
        return "SENC";
      case PolicyKind::SwiftRead:
        return "SWR";
      case PolicyKind::SwiftReadPlus:
        return "SWR+";
      case PolicyKind::RpController:
        return "RPSSD";
      case PolicyKind::Rif:
        return "RiFSSD";
    }
    panic("unknown policy kind");
}

std::optional<PolicyKind>
parsePolicy(const std::string &name)
{
    for (PolicyKind kind : kAllPolicyKinds)
        if (name == policyName(kind))
            return kind;
    return std::nullopt;
}

void
SsdConfig::validate() const
{
    const auto &g = geometry;
    if (g.channels < 1 || g.diesPerChannel < 1 || g.planesPerDie < 1 ||
        g.blocksPerPlane < 1 || g.pagesPerBlock < 1)
        fatal("SsdConfig: every geometry dimension must be >= 1");
    if (g.pageBytes < 512)
        fatal("SsdConfig: geometry.pageBytes must be >= 512");
    if (g.codewordsPerPage < 1)
        fatal("SsdConfig: geometry.codewordsPerPage must be >= 1");
    if (timing.tEccMin > timing.tEccMax)
        fatal("SsdConfig: timing.tEccMin must not exceed timing.tEccMax");
    if (!(hostGBps > 0.0))
        fatal("SsdConfig: hostGBps must be positive, got ", hostGBps);
    if (queueDepth < 1)
        fatal("SsdConfig: queueDepth must be >= 1, got ", queueDepth);
    if (eccBufferPages < 1)
        fatal("SsdConfig: eccBufferPages must be >= 1, got ",
              eccBufferPages);
    if (!(peCycles >= 0.0))
        fatal("SsdConfig: peCycles must be >= 0, got ", peCycles);
    if (!(refreshDays > 0.0))
        fatal("SsdConfig: refreshDays must be positive, got ",
              refreshDays);
    if (!(coldAgeMinDays >= 0.0) || coldAgeMinDays >= refreshDays)
        fatal("SsdConfig: coldAgeMinDays must be in [0, refreshDays), "
              "got ", coldAgeMinDays, " with refreshDays ", refreshDays);
    if (!(hotAgeDays >= 0.0))
        fatal("SsdConfig: hotAgeDays must be >= 0, got ", hotAgeDays);
    if (!(sentinelExtraReadProb >= 0.0 && sentinelExtraReadProb <= 1.0))
        fatal("SsdConfig: sentinelExtraReadProb must be in [0,1], got ",
              sentinelExtraReadProb);
    if (!(vrefTrackedFraction >= 0.0 && vrefTrackedFraction <= 1.0))
        fatal("SsdConfig: vrefTrackedFraction must be in [0,1], got ",
              vrefTrackedFraction);
    if (!(seqStepFactor > 0.0 && seqStepFactor <= 1.0))
        fatal("SsdConfig: seqStepFactor must be in (0,1], got ",
              seqStepFactor);
    if (maxRetrySteps < 1)
        fatal("SsdConfig: maxRetrySteps must be >= 1, got ",
              maxRetrySteps);
    if (!(rpObservedBits > 0.0))
        fatal("SsdConfig: rpObservedBits must be positive, got ",
              rpObservedBits);
    if (!(codewordBits > 0.0))
        fatal("SsdConfig: codewordBits must be positive, got ",
              codewordBits);
    if (gcFreeBlockThreshold < 1)
        fatal("SsdConfig: gcFreeBlockThreshold must be >= 1, got ",
              gcFreeBlockThreshold);
    if (!(preconditionFill >= 0.0 && preconditionFill <= 1.0))
        fatal("SsdConfig: preconditionFill must be in [0,1], got ",
              preconditionFill);
    if (!(rber.capability > 0.0))
        fatal("SsdConfig: rber.capability must be positive, got ",
              rber.capability);
    // Cell-model combinations (docs/NAND_MODEL.md §2). A block must
    // hold at least one full wordline stripe of the cell's page types;
    // fewer pages would leave page types that can never be read and
    // silently skew every per-type RBER statistic.
    const int page_types = nand::pageTypesOf(cellType);
    if (g.pagesPerBlock < page_types)
        fatal("SsdConfig: geometry.pagesPerBlock (", g.pagesPerBlock,
              ") must hold at least one stripe of the ", page_types,
              " page types of ", nand::cellTypeName(cellType),
              " NAND (docs/NAND_MODEL.md §2)");
    if (!(slcBlockFraction >= 0.0 && slcBlockFraction <= 1.0))
        fatal("SsdConfig: nand.slcBlockFraction must be in [0,1], got ",
              slcBlockFraction, " (docs/NAND_MODEL.md §6)");
    if (cellType == nand::CellType::Slc && slcBlockFraction > 0.0)
        fatal("SsdConfig: nand.slcBlockFraction (", slcBlockFraction,
              ") is meaningless on an slc drive — every block is "
              "already SLC (docs/NAND_MODEL.md §6)");
    if (!(slcRberFactor > 0.0 && slcRberFactor <= 1.0))
        fatal("SsdConfig: nand.slcRberFactor must be in (0,1], got ",
              slcRberFactor, " (docs/NAND_MODEL.md §6)");
    // Tracking-cadence combinations (docs/NAND_MODEL.md §5).
    if (!(rvsCost.recharacterizeDays > 0.0))
        fatal("SsdConfig: rvs.recharacterizeDays must be positive, "
              "got ", rvsCost.recharacterizeDays,
              " (docs/NAND_MODEL.md §5)");
    if (rvsCost.recharacterizeDays > refreshDays)
        fatal("SsdConfig: rvs.recharacterizeDays (",
              rvsCost.recharacterizeDays,
              ") must not exceed refreshDays (", refreshDays,
              "): data would be refreshed before it is ever "
              "re-characterized (docs/NAND_MODEL.md §5)");
    if (rvsCost.samplesPerThreshold < 1)
        fatal("SsdConfig: rvs.samplesPerThreshold must be >= 1, got ",
              rvsCost.samplesPerThreshold, " (docs/NAND_MODEL.md §5)");
    if (!(rvsCost.sampleReadUs > 0.0))
        fatal("SsdConfig: rvs.sampleReadUs must be positive, got ",
              rvsCost.sampleReadUs, " (docs/NAND_MODEL.md §5)");
}

nand::Geometry
SsdConfig::simGeometry()
{
    nand::Geometry g; // Table I organization...
    g.blocksPerPlane = 128; // ...scaled down from 1888 blocks/plane
    return g;
}

nand::Geometry
SsdConfig::paperGeometry()
{
    return nand::Geometry{};
}

Tick
SsdConfig::teccSuccess(double rber_value) const
{
    // LDPC decode latency grows with the iteration count, which rises
    // superlinearly toward the capability (Fig. 3(b)). Successful
    // decodes span ~1-6 us; the capped quadratic matches the measured
    // iteration curve of our QC-LDPC.
    const double ratio =
        std::clamp(rber_value / rber.capability, 0.0, 1.0);
    const double us = 1.0 + 5.0 * ratio * ratio;
    const Tick t = usToTicks(us);
    return std::min(t, timing.tEccMax);
}

} // namespace ssd
} // namespace rif
