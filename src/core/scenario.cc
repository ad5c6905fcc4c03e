#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "core/tracing.h"

namespace rif {
namespace core {

int
ScenarioContext::scaled(std::uint64_t base) const
{
    if (!std::isfinite(scale) || !(scale > 0.0))
        return 1;
    const double v = static_cast<double>(base) * scale;
    if (v >= static_cast<double>(std::numeric_limits<int>::max()))
        return std::numeric_limits<int>::max();
    const auto u = static_cast<std::uint64_t>(v);
    return static_cast<int>(u < 1 ? 1 : u);
}

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

void
ScenarioRegistry::add(const Scenario &scenario)
{
    RIF_ASSERT(scenario.name != nullptr && scenario.body != nullptr,
               "scenario must have a name and a body");
    if (find(scenario.name) != nullptr)
        panic("duplicate scenario registration '", scenario.name, "'");
    scenarios_.push_back(scenario);
}

const Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    for (const Scenario &s : scenarios_)
        if (name == s.name)
            return &s;
    return nullptr;
}

std::vector<const Scenario *>
ScenarioRegistry::all() const
{
    std::vector<const Scenario *> out;
    out.reserve(scenarios_.size());
    for (const Scenario &s : scenarios_)
        out.push_back(&s);
    std::sort(out.begin(), out.end(),
              [](const Scenario *a, const Scenario *b) {
                  return std::string(a->name) < b->name;
              });
    return out;
}

void
runScenario(const Scenario &scenario, ResultSink &sink, double scale,
            const OptionSet &opts)
{
    sink.header(scenario.title, scenario.paperRef);
    ScenarioContext ctx{sink, opts, scale};
    scenario.body(ctx);
}

void
runScenarios(const std::vector<const Scenario *> &selected,
             SinkFormat format, std::ostream &os, double scale,
             const OptionSet &opts, const ObservabilityOptions &obs)
{
    // The trace scope (when requested) spans the whole invocation; the
    // pool carries its recorder into every scenario body.
    std::optional<tracing::TraceScope> trace;
    if (!obs.tracePath.empty())
        trace.emplace();

    const bool want_metrics = obs.wantMetrics();
    std::vector<metrics::Snapshot> snaps(selected.size());

    // Scenario i reports into buffers[i]. A buffer reaches `os` as soon
    // as it and every buffer before it are complete, so the stream
    // keeps selection order at any thread count and, on one thread,
    // still grows one scenario at a time.
    std::vector<std::ostringstream> buffers(selected.size());
    std::vector<bool> done(selected.size(), false);
    std::size_t flushed = 0;
    std::mutex flush_mutex;

    parallelFor(selected.size(), [&](std::size_t i) {
        // Scenario i numbers its runs' trace tracks from i << 16, so
        // concurrent scenarios never share a track or its budget.
        tracing::TrackScope track(static_cast<std::uint32_t>(i) << 16);
        {
            const auto sink = makeSink(format, buffers[i]);
            std::optional<metrics::MetricsScope> scope;
            if (want_metrics)
                scope.emplace();
            runScenario(*selected[i], *sink, scale, opts);
            if (scope) {
                snaps[i] = scope->finish();
                if (obs.metricsTable)
                    sink->table(snaps[i].toTable(
                        std::string("metrics: ") + selected[i]->name));
            }
        }
        std::lock_guard<std::mutex> lock(flush_mutex);
        done[i] = true;
        for (; flushed < selected.size() && done[flushed]; ++flushed) {
            os << buffers[flushed].str();
            buffers[flushed].str({});
        }
    });

    if (!obs.metricsPath.empty()) {
        std::ofstream file(obs.metricsPath);
        if (!file)
            fatal("cannot open --metrics file '", obs.metricsPath, "'");
        file << "{";
        for (std::size_t i = 0; i < selected.size(); ++i) {
            file << (i ? ",\n" : "\n") << "\"" << selected[i]->name
                 << "\": ";
            snaps[i].writeJson(file);
        }
        file << (selected.empty() ? "}" : "\n}") << "\n";
    }

    if (trace) {
        std::ofstream file(obs.tracePath);
        if (!file)
            fatal("cannot open --trace file '", obs.tracePath, "'");
        const std::string &p = obs.tracePath;
        const bool jsonl = p.size() >= 6 &&
                           p.compare(p.size() - 6, 6, ".jsonl") == 0;
        if (jsonl)
            trace->writeJsonl(file);
        else
            trace->writeChromeJson(file);
    }
}

} // namespace core
} // namespace rif
