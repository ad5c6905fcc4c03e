#include "fabric/config.h"

#include "common/hash.h"
#include "common/logging.h"

namespace rif {
namespace fabric {

const char *
placementName(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::Striped:
        return "striped";
      case PlacementKind::Replicated:
        return "replicated";
    }
    panic("unknown placement kind");
}

std::optional<PlacementKind>
parsePlacement(const std::string &name)
{
    for (PlacementKind kind :
         {PlacementKind::Striped, PlacementKind::Replicated})
        if (name == placementName(kind))
            return kind;
    return std::nullopt;
}

void
FleetConfig::validate() const
{
    if (drives < 1)
        fatal("fleet.drives must be >= 1 (got ", drives, ")");
    if (placement == PlacementKind::Replicated &&
        (replicas < 1 || replicas > drives))
        fatal("fleet.replicas must be in [1, fleet.drives] (got ",
              replicas, " with ", drives, " drives)");
    if (stripePages < 1)
        fatal("fleet.stripePages must be >= 1");
    if (qd < 1)
        fatal("fleet.qd must be >= 1");
    if (linkGBps <= 0.0)
        fatal("fleet.linkGBps must be > 0");
    if (!(linkUs > 0.0) || linkTicks() < 1)
        fatal("fleet.linkUs must be > 0 (the link latency is the "
              "lookahead window)");
    if (agedDrives < 0 || agedDrives > drives)
        fatal("fleet.agedDrives must be in [0, fleet.drives] (got ",
              agedDrives, ")");
    if (agedPeCycles < 0.0)
        fatal("fleet.agedPeCycles must be >= 0");
}

std::uint64_t
driveSeed(std::uint64_t base, int drive)
{
    // Hash (base, index) only — never the fleet size — so drive i's
    // streams are identical whether it serves in a 1-drive or a
    // 64-drive fleet.
    Hasher h;
    h.add(std::uint64_t(0x52694664656574ull)); // "RiFdleet" domain tag
    h.add(base);
    h.add(drive);
    return h.finish().lo;
}

} // namespace fabric
} // namespace rif
