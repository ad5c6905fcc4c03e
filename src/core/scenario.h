/**
 * @file
 * Declarative scenario registry: every paper figure/table/ablation is a
 * named Scenario whose body reports through a ResultSink instead of
 * printing. Scenario files self-register via RIF_REGISTER_SCENARIO and
 * the `rif` driver discovers them at runtime (`rif list`, `rif run`).
 * Adding a new experiment is one ~50-line file: a body plus a
 * registration line.
 */

#ifndef RIF_CORE_SCENARIO_H
#define RIF_CORE_SCENARIO_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/sinks.h"

namespace rif {
namespace core {

/**
 * Per-run context handed to a scenario body: the sink to report
 * through, the workload-size scale factor and the user's layered
 * overrides. Bodies call opts.applyTo() after setting their own
 * defaults so `--set` wins over scenario defaults.
 */
struct ScenarioContext
{
    ResultSink &sink;
    const OptionSet &opts;
    double scale = 1.0;

    /** base * scale as a count >= 1, clamped against int overflow. */
    int scaled(std::uint64_t base) const;

    /** The `--workload` override, or the scenario's default. */
    std::string
    workload(const std::string &fallback) const
    {
        return opts.workload() ? *opts.workload() : fallback;
    }
};

/** One registered experiment (a paper figure, table or ablation). */
struct Scenario
{
    const char *name;     ///< CLI name (`rif run <name>`)
    const char *title;    ///< banner headline
    const char *paperRef; ///< what it reproduces ("Fig. 17 ...")
    void (*body)(ScenarioContext &);
};

/** Process-wide registry populated by RIF_REGISTER_SCENARIO. */
class ScenarioRegistry
{
  public:
    static ScenarioRegistry &instance();

    /** Register a scenario (panics on duplicate names). */
    void add(const Scenario &scenario);

    /** Look up by CLI name; nullptr if unknown. */
    const Scenario *find(const std::string &name) const;

    /** Every scenario, sorted by name for stable listings. */
    std::vector<const Scenario *> all() const;

  private:
    std::vector<Scenario> scenarios_;
};

/** Static-initialization hook used by RIF_REGISTER_SCENARIO. */
class ScenarioRegistrar
{
  public:
    explicit ScenarioRegistrar(const Scenario &scenario)
    {
        ScenarioRegistry::instance().add(scenario);
    }
};

/**
 * Self-register a scenario. `ident` is both the CLI name and the
 * registrar's identifier, so it must be a valid C identifier.
 */
#define RIF_REGISTER_SCENARIO(ident, title, paper_ref, body)            \
    static const ::rif::core::ScenarioRegistrar                         \
        rifScenarioRegistrar_##ident(                                   \
            ::rif::core::Scenario{#ident, title, paper_ref, body})

/** Emit the banner and run the body through the sink. */
void runScenario(const Scenario &scenario, ResultSink &sink, double scale,
                 const OptionSet &opts);

/**
 * Observability switches for a `rif run` invocation (`--metrics`,
 * `--trace`). Metrics wrap every selected scenario in its own
 * MetricsScope, and each scenario numbers its trace tracks from its own
 * base (see runScenarios). Snapshots and tracks are deterministic, so
 * both surfaces are byte-identical at any RIF_THREADS setting.
 */
struct ObservabilityOptions
{
    /** Append each scenario's registry table to its normal output. */
    bool metricsTable = false;
    /** Write all snapshots as one JSON object keyed by scenario name. */
    std::string metricsPath;
    /** Write the event trace (Chrome JSON, or JSONL for *.jsonl). */
    std::string tracePath;

    bool
    wantMetrics() const
    {
        return metricsTable || !metricsPath.empty();
    }
};

/**
 * Run `selected` as one parallelFor over the selection, on the same
 * worker team as the scenarios' own inner loops. Each scenario reports
 * into a private buffer, and the buffers reach `os` in selection order
 * as soon as each prefix is complete, so the bytes are identical at any
 * RIF_THREADS and a one-thread run streams scenario by scenario.
 * Scenario i runs under the trace track base i << 16. `obs` selects the
 * metrics and trace capture (`--metrics`, `--trace`); pass `{}` for
 * none.
 */
void runScenarios(const std::vector<const Scenario *> &selected,
                  SinkFormat format, std::ostream &os, double scale,
                  const OptionSet &opts, const ObservabilityOptions &obs);

} // namespace core
} // namespace rif

#endif // RIF_CORE_SCENARIO_H
