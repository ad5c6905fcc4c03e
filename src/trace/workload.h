/**
 * @file
 * The workload engine's front door: one WorkloadConfig describes where
 * requests come from (a real trace file or the synthetic Table-II
 * generator) and how they arrive (closed-loop, the trace's own
 * timestamps, or a generated Poisson open loop), and openWorkload()
 * assembles the TraceSource chain. Scenario bodies set defaults, layer
 * `--set workload.*` overrides on top, and replay the result through
 * Ssd::run or Fleet::run, whose HostDriver paces it with the matching
 * ArrivalPolicy (ssd/arrival.h).
 */

#ifndef RIF_TRACE_WORKLOAD_H
#define RIF_TRACE_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>

#include "trace/trace.h"

namespace rif {
namespace trace {

/** How requests are injected into the device. */
enum class ArrivalMode
{
    Closed,    ///< closed loop at the device/fleet queue depth
    Timestamp, ///< open loop at the records' own arrival ticks
    Poisson,   ///< open loop, Poisson generator
};

const char *arrivalModeName(ArrivalMode m);

/** Parse an arrival-mode name; false when unknown. */
bool parseArrivalMode(const std::string &name, ArrivalMode &out);

/** A fully described workload (trace source x arrival process). */
struct WorkloadConfig
{
    /** Trace file to replay; empty runs the synthetic generator. */
    std::string trace;
    /** Trace dialect: auto | csv | msr | alibaba. */
    std::string format = "auto";
    /** Injection: closed | timestamp | poisson. */
    std::string arrival = "closed";
    /** Offered load of the Poisson open loop (kIOPS). */
    double rateKiops = 200.0;
    /** Bounded host queue past the device depth (open loop). */
    int queueCap = 1024;
    std::uint64_t arrivalSeed = 0x5eed;

    /** Parsed arrival mode (validate() first; fatal on bad names). */
    ArrivalMode mode() const;

    bool openLoop() const { return mode() != ArrivalMode::Closed; }

    /** Fatal on unknown names / out-of-domain values. */
    void validate() const;
};

/**
 * Build the configured source chain: the trace file (streaming reader,
 * dialect per cfg.format) or a SyntheticWorkload(fallback, requests,
 * seed), wrapped in a TimedTrace for the Poisson open loop.
 */
std::unique_ptr<TraceSource> openWorkload(const WorkloadConfig &cfg,
                                          const WorkloadSpec &fallback,
                                          std::uint64_t requests,
                                          std::uint64_t seed);

} // namespace trace
} // namespace rif

#endif // RIF_TRACE_WORKLOAD_H
