#include "core/experiment.h"

#include <memory>

#include "common/parallel.h"
#include "core/tracing.h"

namespace rif {

namespace {

/**
 * The body every single-drive run shares: build the drive, label the
 * trace track after the run, and collect the stats `replay(drive)`
 * returns plus the metrics it records.
 */
template <typename Replay>
RunResult
runOnDrive(const ssd::SsdConfig &config, const std::string &label,
           Replay replay)
{
    ssd::Ssd drive(config);
    RunResult out;
    out.workload = label;
    out.policy = config.policy;
    out.peCycles = config.peCycles;
    tracing::setTrackLabel(tracing::currentTrack(),
                           label + " " + ssd::policyName(config.policy));
    metrics::MetricsScope scope;
    out.stats = replay(drive);
    out.metrics = scope.finish();
    return out;
}

} // namespace

Experiment::Experiment() = default;

Experiment &
Experiment::withPolicy(ssd::PolicyKind policy)
{
    config_.policy = policy;
    return *this;
}

Experiment &
Experiment::withPeCycles(double pe)
{
    config_.peCycles = pe;
    return *this;
}

RunResult
Experiment::run(const std::string &workload_name,
                const RunScale &scale) const
{
    trace::SyntheticWorkload source(trace::workloadByName(workload_name),
                                    scale.requests, scale.seed);
    return run(source, workload_name);
}

RunResult
Experiment::run(trace::TraceSource &source, const std::string &label) const
{
    return runOnDrive(config_, label,
                      [&](ssd::Ssd &drive) { return drive.run(source); });
}

RunResult
Experiment::runMultiTenant(const std::vector<trace::WorkloadSpec> &specs,
                           const RunScale &scale) const
{
    std::vector<std::unique_ptr<trace::SyntheticWorkload>> gens;
    std::vector<std::unique_ptr<trace::OffsetTrace>> shifted;
    std::vector<trace::TraceSource *> sources;
    std::uint64_t offset = 0;
    std::string label;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        gens.push_back(std::make_unique<trace::SyntheticWorkload>(
            specs[i], scale.requests, scale.seed + i));
        shifted.push_back(
            std::make_unique<trace::OffsetTrace>(*gens.back(), offset));
        sources.push_back(shifted.back().get());
        offset += specs[i].footprintPages;
        if (i)
            label += "+";
        label += specs[i].name;
    }

    return runOnDrive(config_, label, [&](ssd::Ssd &drive) {
        return drive.runMultiQueue(sources);
    });
}

std::vector<RunResult>
Experiment::sweepPolicies(const std::string &workload_name,
                          const std::vector<ssd::PolicyKind> &policies,
                          const RunScale &scale) const
{
    // Each policy run is an independent simulation (own Ssd, own trace
    // generator seeded only by `scale`), so runs execute in parallel with
    // results landing in per-policy slots.
    std::vector<RunResult> out(policies.size());
    parallelFor(policies.size(), [&](std::size_t i) {
        tracing::TrackScope track(static_cast<std::uint32_t>(i));
        Experiment e = *this;
        e.withPolicy(policies[i]);
        out[i] = e.run(workload_name, scale);
    });
    return out;
}

std::vector<RunResult>
parallelRuns(std::size_t n,
             const std::function<RunResult(std::size_t)> &job)
{
    std::vector<RunResult> out(n);
    parallelFor(n, [&](std::size_t i) {
        // Give each point its own trace track so events from concurrent
        // runs never interleave (and drops stay per-track deterministic).
        tracing::TrackScope track(static_cast<std::uint32_t>(i));
        out[i] = job(i);
    });
    return out;
}

const char *
versionString()
{
    return "rif 1.0.0";
}

} // namespace rif
