#include "core/experiment.h"

#include "common/parallel.h"
#include "core/tracing.h"

namespace rif {

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
    ssd::Ssd drive(config_);
    RunResult out;
    out.workload = label;
    out.policy = config_.policy;
    out.peCycles = config_.peCycles;
    tracing::setTrackLabel(tracing::currentTrack(),
                           label + " " + ssd::policyName(config_.policy));
    metrics::MetricsScope scope;
    out.stats = drive.run(source);
    out.metrics = scope.finish();
    return out;
}

std::vector<RunResult>
parallelRuns(std::size_t n,
             const std::function<RunResult(std::size_t)> &job)
{
    std::vector<RunResult> out(n);
    const std::uint32_t base = tracing::currentTrack();
    parallelFor(n, [&](std::size_t i) {
        // Give each point its own trace track, numbered from the
        // caller's, so events from concurrent runs never interleave (and
        // drops stay per-track deterministic).
        tracing::TrackScope track(base + static_cast<std::uint32_t>(i));
        out[i] = job(i);
    });
    return out;
}

} // namespace rif
