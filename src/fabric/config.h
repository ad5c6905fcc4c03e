/**
 * @file
 * Fleet-level configuration: how many drives sit behind the modeled
 * host-side interconnect, how logical pages are placed across them
 * (striping vs replication), the per-drive link latency/bandwidth and
 * the closed-loop host queue depth. Addressable from the driver via
 * `--set fleet.*` keys (see core/options.cc).
 */

#ifndef RIF_FABRIC_CONFIG_H
#define RIF_FABRIC_CONFIG_H

#include <cstdint>
#include <optional>
#include <string>

#include "common/units.h"

namespace rif {
namespace fabric {

/** How logical pages map onto the fleet's drives. */
enum class PlacementKind
{
    Striped,    ///< RAID-0 style: chunk i lives on drive i % N
    Replicated, ///< R copies per chunk; reads pick the least-loaded
};

/** Name as accepted by `--set fleet.placement` ("striped"|"replicated"). */
const char *placementName(PlacementKind kind);

/** Inverse of placementName(); nullopt for an unknown label. */
std::optional<PlacementKind> parsePlacement(const std::string &name);

/** Configuration of a multi-SSD fleet behind one host. */
struct FleetConfig
{
    /** Independent drives behind the interconnect. */
    int drives = 4;

    PlacementKind placement = PlacementKind::Striped;

    /** Copies per chunk under Replicated placement (<= drives). */
    int replicas = 2;

    /** Placement chunk size in flash pages. */
    std::uint32_t stripePages = 16;

    /** Fleet-wide closed-loop outstanding host commands. */
    int qd = 256;

    /**
     * One-way link propagation latency, host <-> each drive. Also the
     * lookahead window of the conservative round scheduler: larger
     * values mean fewer synchronization rounds. Must be at least one
     * tick for every fleet, a single drive included; a bare Ssd runs
     * one drive without a link.
     */
    double linkUs = 10.0;

    /** Per-direction link bandwidth per drive (GB/s). */
    double linkGBps = 4.0;

    /**
     * Retry-storm studies: the first `agedDrives` drives run at
     * `agedPeCycles` P/E cycles instead of the base config's wear
     * point, concentrating read-retry storms on a slice of the fleet.
     */
    int agedDrives = 0;
    double agedPeCycles = 3000.0;

    /** Link latency in simulator ticks. */
    Tick linkTicks() const { return usToTicks(linkUs); }

    /** Fatal on nonsense combinations (see config.cc). */
    void validate() const;
};

/**
 * Seed of drive i's RNG streams, derived from the base seed and the
 * drive index alone — never from the drive count — so growing
 * fleet.drives leaves every existing drive's draw sequence untouched
 * (the fleet analogue of PR 1's per-index Monte-Carlo stream forking).
 */
std::uint64_t driveSeed(std::uint64_t base, int drive);

} // namespace fabric
} // namespace rif

#endif // RIF_FABRIC_CONFIG_H
