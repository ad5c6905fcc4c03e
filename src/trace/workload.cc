#include "trace/workload.h"

#include "common/logging.h"
#include "trace/arrival.h"
#include "trace/stream.h"

namespace rif {
namespace trace {

const char *
arrivalModeName(ArrivalMode m)
{
    switch (m) {
    case ArrivalMode::Closed:
        return "closed";
    case ArrivalMode::Timestamp:
        return "timestamp";
    case ArrivalMode::Poisson:
        return "poisson";
    }
    return "?";
}

bool
parseArrivalMode(const std::string &name, ArrivalMode &out)
{
    for (ArrivalMode m : {ArrivalMode::Closed, ArrivalMode::Timestamp,
                          ArrivalMode::Poisson}) {
        if (name == arrivalModeName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

ArrivalMode
WorkloadConfig::mode() const
{
    ArrivalMode m = ArrivalMode::Closed;
    if (!parseArrivalMode(arrival, m))
        fatal("workload.arrival: unknown mode '", arrival,
              "' (expected closed|timestamp|poisson)");
    return m;
}

void
WorkloadConfig::validate() const
{
    (void)mode();
    TraceFormat f = TraceFormat::Csv;
    if (format != "auto" && !parseTraceFormat(format, f))
        fatal("workload.format: unknown dialect '", format,
              "' (expected auto|csv|msr|alibaba)");
    if (!(rateKiops > 0.0))
        fatal("workload.rateKiops must be positive");
    if (queueCap < 1)
        fatal("workload.queueCap must be at least 1");
}

std::unique_ptr<TraceSource>
openWorkload(const WorkloadConfig &cfg, const WorkloadSpec &fallback,
             std::uint64_t requests, std::uint64_t seed)
{
    cfg.validate();

    std::unique_ptr<TraceSource> base;
    if (cfg.trace.empty()) {
        base = std::make_unique<SyntheticWorkload>(fallback, requests,
                                                   seed);
    } else if (cfg.format == "auto") {
        base = std::make_unique<StreamTrace>(cfg.trace);
    } else {
        TraceFormat f = TraceFormat::Csv;
        parseTraceFormat(cfg.format, f);
        base = std::make_unique<StreamTrace>(cfg.trace, f);
    }

    if (cfg.mode() != ArrivalMode::Poisson) {
        // Closed loop ignores timestamps; timestamp mode replays the
        // ones already on the records.
        return base;
    }
    return std::make_unique<TimedTrace>(
        std::move(base),
        PoissonArrivals(cfg.rateKiops * 1e3, cfg.arrivalSeed));
}

} // namespace trace
} // namespace rif
