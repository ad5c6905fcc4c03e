/**
 * @file
 * SSD simulator configuration: the flash geometry and latencies of the
 * paper's Table I, the host/channel bandwidths, the read-retry policy
 * under evaluation and the wear/retention operating point.
 */

#ifndef RIF_SSD_CONFIG_H
#define RIF_SSD_CONFIG_H

#include <cstdint>
#include <optional>
#include <string>

#include "common/units.h"
#include "nand/cell.h"
#include "nand/geometry.h"
#include "nand/rber_model.h"
#include "odear/rvs_cost.h"

namespace rif {
namespace ssd {

/** Read-retry handling scheme of an SSD configuration (paper §VI-A). */
enum class PolicyKind
{
    Zero,          ///< SSDzero: hypothetical, no read ever retries
    FixedSequence, ///< conventional retry: predetermined VREF steps,
                   ///< NRR often > 1 (paper §II-B2)
    IdealOffChip,  ///< SSDone: ideal off-chip retry, NRR = 1
    Sentinel,      ///< SENC: Sentinel [MICRO'20]
    SwiftRead,     ///< SWR: Swift-Read [ISSCC'22]
    SwiftReadPlus, ///< SWR+: SWR + proactive VREF tracking [MICRO'19]
    RpController,  ///< RPSSD: RP at the controller (early termination)
    Rif,           ///< RiFSSD: on-die ODEAR engine
};

/** Human-readable policy name as used in the paper's figures. */
const char *policyName(PolicyKind kind);

/** Inverse of policyName(); nullopt for an unknown label. */
std::optional<PolicyKind> parsePolicy(const std::string &name);

/** All comparison policies in the paper's plotting order. */
inline constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::Sentinel,      PolicyKind::SwiftRead,
    PolicyKind::SwiftReadPlus, PolicyKind::RpController,
    PolicyKind::Rif,           PolicyKind::Zero,
};

/** Every policy kind, for exhaustive round-trip tests and sweeps. */
inline constexpr PolicyKind kAllPolicyKinds[] = {
    PolicyKind::Zero,          PolicyKind::FixedSequence,
    PolicyKind::IdealOffChip,  PolicyKind::Sentinel,
    PolicyKind::SwiftRead,     PolicyKind::SwiftReadPlus,
    PolicyKind::RpController,  PolicyKind::Rif,
};

/** Full simulator configuration. */
struct SsdConfig
{
    nand::Geometry geometry = simGeometry();
    nand::Timing timing;
    nand::RberParams rber;

    /**
     * NAND cell type of the array (`--set nand.cellType=slc|tlc|qlc`).
     * Drives the page-type striping, the V_TH state count and the VREF
     * subsets end to end; setting it via `--set` also re-bases `rber`
     * to that cell's parametric calibration (cellRberParams). The TLC
     * default is the paper's device and is golden-pinned.
     */
    nand::CellType cellType = nand::CellType::Tlc;

    /**
     * Hybrid SLC-mode conversion: the fraction of each plane's blocks
     * (rounded down) operated in SLC mode — every page in them behaves
     * as an Lsb page with `slcRberFactor` times the RBER, the RARO
     * trade: capacity for reliability. 0 disables.
     */
    double slcBlockFraction = 0.0;

    /** RBER multiplier of SLC-mode blocks vs. the native cell. */
    double slcRberFactor = 0.02;

    /** Host-side VREF-tracking cost model (`--set rvs.*`). */
    odear::RvsCostParams rvsCost;

    PolicyKind policy = PolicyKind::Rif;

    /** Host interface peak bandwidth (PCIe 4.0 x4). */
    double hostGBps = 8.0;
    /** Closed-loop outstanding host requests. */
    int queueDepth = 64;
    /**
     * Pages the channel may deliver to the ECC engine before it must
     * stall (decoder input buffering; §III-B3's root cause three).
     */
    int eccBufferPages = 2;

    /** Wear state: P/E cycles experienced by every block. */
    double peCycles = 0.0;
    /** Periodic refresh window; cold data age is uniform in
     *  [coldAgeMinDays, refreshDays). */
    double refreshDays = 30.0;
    /** Lower bound of cold-data age (raised by deterministic studies
     *  that need every cold read to require a retry). */
    double coldAgeMinDays = 0.0;
    /** Initial age of hot (will-be-rewritten) data, uniform [0, this). */
    double hotAgeDays = 2.0;

    /** SENC: probability a failed page needs an extra sentinel-cell
     *  read at different VREFs (CSB/MSB pages; §III-B). */
    double sentinelExtraReadProb = 2.0 / 3.0;
    /** SWR+: fraction of reads whose VREF the tracker pre-optimized. */
    double vrefTrackedFraction = 0.40;
    /** Controller-side RP latency (RPSSD early decode termination). */
    Tick tPredController = usToTicks(2.5);

    /** Conventional fixed-sequence retry: each VREF step along the
     *  manufacturer sequence multiplies the page's RBER by this. */
    double seqStepFactor = 0.65;
    /** Maximum VREF steps before the sequence is exhausted (the final
     *  step falls back to the near-optimal voltage). */
    int maxRetrySteps = 8;

    /** RP behaviour model: effective bits observed by the predictor. */
    double rpObservedBits = 1024.0 * 33.0;
    /** Bits per codeword seen by the decoder. */
    double codewordBits = 36864.0;

    /** GC: free-block low watermark per plane. */
    int gcFreeBlockThreshold = 3;

    /**
     * Read-disturb management: relocate a block once its read count
     * since the last program exceeds this (0 disables). Internal reads
     * and programs consume channel/die bandwidth exactly like GC.
     */
    std::uint32_t readDisturbThreshold = 200000;
    /** Fraction of the logical footprint preconditioned as valid. */
    double preconditionFill = 1.0;

    std::uint64_t seed = 1234;

    /**
     * Scaled-down simulation geometry: Table I channel/die/plane
     * organization with fewer blocks so a run fits in memory/minutes
     * (the paper's 2-TiB drive is reported by table01_config).
     */
    static nand::Geometry simGeometry();

    /** Table I full-size geometry (for capacity reporting). */
    static nand::Geometry paperGeometry();

    /** Per-page ECC decode latency for a successfully decoded page. */
    Tick teccSuccess(double rber_value) const;

    /** Per-page ECC decode latency for a failed decode (max iters). */
    Tick teccFailure() const { return timing.tEccMax; }

    /** Decode latency after a near-optimal re-read (paper: 1 us). */
    Tick teccAfterRetry() const { return timing.tEccMin; }

    /**
     * Reject nonsense configurations (non-positive bandwidths or
     * geometry, probabilities outside [0,1], empty ECC buffers, a cold
     * age window that is empty, ...) with a fatal() naming the field.
     * Called by the Ssd constructor and after every layered `--set`
     * override, so a bad override fails loudly instead of simulating
     * garbage.
     */
    void validate() const;
};

} // namespace ssd
} // namespace rif

#endif // RIF_SSD_CONFIG_H
