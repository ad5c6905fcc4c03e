#include "core/scenario.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

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
             const OptionSet &opts, int jobs,
             const ObservabilityOptions &obs)
{
    // The trace scope (when requested) spans the whole invocation; the
    // --jobs workers join it via RecorderScope below.
    std::optional<tracing::TraceScope> trace;
    if (!obs.tracePath.empty())
        trace.emplace();

    const bool want_metrics = obs.wantMetrics();
    std::vector<metrics::Snapshot> snaps(selected.size());

    // Run scenario `i` into `sink`, capturing its registry snapshot
    // (and appending it to the scenario's own output for --metrics).
    const auto run_one = [&](std::size_t i, ResultSink &sink) {
        if (!want_metrics) {
            runScenario(*selected[i], sink, scale, opts);
            return;
        }
        metrics::MetricsScope scope;
        runScenario(*selected[i], sink, scale, opts);
        snaps[i] = scope.finish();
        if (obs.metricsTable)
            sink.table(snaps[i].toTable(std::string("metrics: ") +
                                        selected[i]->name));
    };

    if (jobs > static_cast<int>(selected.size()))
        jobs = static_cast<int>(selected.size());
    if (jobs <= 1) {
        const auto sink = makeSink(format, os);
        for (std::size_t i = 0; i < selected.size(); ++i)
            run_one(i, *sink);
    } else {
        // Cooperative thread-budget handshake: the scenario workers
        // divide the configured RIF_THREADS budget, so worker x inner
        // parallelism stays at the budget no matter how --jobs and
        // RIF_THREADS combine.
        const int budget = std::max(1, configuredThreadCount() / jobs);

        // Private buffer per scenario, emitted in selection order
        // below: interleaving never reaches the stream, so the bytes
        // match the sequential path at any job count.
        std::vector<std::ostringstream> buffers(selected.size());
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(jobs));
        for (int w = 0; w < jobs; ++w) {
            workers.emplace_back([&] {
                ThreadArena arena(budget);
                tracing::RecorderScope recorder(
                    trace ? &trace->recorder() : nullptr);
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= selected.size())
                        return;
                    const auto sink = makeSink(format, buffers[i]);
                    run_one(i, *sink);
                }
            });
        }
        for (std::thread &worker : workers)
            worker.join();
        for (std::ostringstream &buffer : buffers)
            os << buffer.str();
    }

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
