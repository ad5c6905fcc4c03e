/**
 * @file
 * `rif` — the single driver for every paper figure, table and ablation.
 *
 *   rif list                         enumerate registered scenarios
 *   rif run <scenario> [options]     run one scenario
 *   rif run --all [options]          run every scenario in name order
 *   rif metrics <scenario> [options] run silently, print the registry
 *   rif help [set]                   usage / the `--set` key reference
 *
 * Options for `run`:
 *   --quick            scale 0.25 (same as the legacy bench flag)
 *   --scale S          multiply default trial/request counts by S
 *   --set k=v          layered config override (repeatable; later wins)
 *   --workload W       workload override for single-workload scenarios
 *   --format F         table (default) | csv | jsonl
 *   --out FILE         write results to FILE instead of stdout
 *   --cache-dir DIR    persist cached artifacts across invocations
 *   --no-cache         disable every memoization layer
 *   --metrics[=FILE]   append each scenario's metric registry to its
 *                      output, or write all snapshots to FILE as JSON
 *   --trace=FILE       record an event trace of the simulated runs
 *                      (Chrome trace_event JSON; JSONL for *.jsonl)
 *
 * With no overrides the table output is byte-identical to the legacy
 * one-binary-per-figure benches at any RIF_THREADS and any cache
 * state. Selected scenarios run concurrently on the one RIF_THREADS
 * worker team, and their output stays in selection order.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parse.h"
#include "core/artifact_cache.h"
#include "core/scenario.h"

namespace {

using namespace rif;
using namespace rif::core;

void
printUsage(std::ostream &os)
{
    os << "usage:\n"
          "  rif list                      list registered scenarios\n"
          "  rif run <scenario> [options]  run one scenario\n"
          "  rif run --all [options]       run every scenario\n"
          "  rif metrics <scenario> [...]  run silently, print the "
          "metric registry\n"
          "  rif help [set]                this text / --set key "
          "reference\n"
          "\n"
          "run options:\n"
          "  --quick          scale 0.25\n"
          "  --scale S        multiply default trial/request counts by "
          "S (finite, > 0)\n"
          "  --set key=value  config override, e.g. --set "
          "ssd.queueDepth=128 (repeatable)\n"
          "  --workload W     workload override (see `rif run "
          "table02_workloads`)\n"
          "  --format F       table (default) | csv | jsonl\n"
          "  --out FILE       write to FILE instead of stdout\n"
          "  --cache-dir DIR  persist expensive artifacts (sweeps, "
          "calibrations) across runs\n"
          "  --no-cache       disable artifact memoization (results "
          "are identical either way)\n"
          "  --metrics[=FILE] append each scenario's metric registry "
          "to its output,\n"
          "                   or write all snapshots to FILE as JSON\n"
          "  --trace=FILE     record an event trace of the simulated "
          "runs (Chrome\n"
          "                   trace_event JSON; JSONL when FILE ends "
          "in .jsonl)\n";
}

int
cmdList()
{
    const auto all = ScenarioRegistry::instance().all();
    std::size_t width = 0;
    for (const Scenario *s : all)
        width = std::max(width, std::string(s->name).size());
    for (const Scenario *s : all) {
        std::string name = s->name;
        name.resize(width, ' ');
        std::cout << name << "  " << s->title << " [" << s->paperRef
                  << "]\n";
    }
    return 0;
}

int
cmdHelp(const std::vector<std::string> &args)
{
    if (!args.empty() && args[0] == "set") {
        std::cout << "--set keys (scenario defaults < --set, later "
                     "--set wins):\n";
        const auto keys = OptionSet::knownKeys();
        std::size_t width = 0;
        for (const auto &k : keys)
            width = std::max(width, std::string(k.key).size());
        for (const auto &k : keys) {
            std::string key = k.key;
            key.resize(width, ' ');
            std::cout << "  " << key << "  " << k.help << "\n";
        }
        return 0;
    }
    printUsage(std::cout);
    return 0;
}

double
parseScale(const std::string &value)
{
    const auto v = parseNumber<double>(value);
    if (!v || !std::isfinite(*v) || !(*v > 0.0))
        fatal("--scale expects a finite positive number, got '", value,
              "'");
    return *v;
}

/** Everything `rif run` / `rif metrics` parse from their arguments. */
struct RunArgs
{
    std::vector<std::string> names;
    bool all = false;
    double scale = 1.0;
    SinkFormat format = SinkFormat::Table;
    std::string out_path;
    OptionSet opts;
    ObservabilityOptions obs;
};

RunArgs
parseRunArgs(const std::vector<std::string> &args, const char *command)
{
    RunArgs a;

    // Accept both `--flag value` and `--flag=value`.
    auto value_of = [&](const std::string &arg, const std::string &flag,
                        std::size_t &i,
                        std::string &out) {
        if (arg == flag) {
            if (i + 1 >= args.size())
                fatal(flag, " expects a value");
            out = args[++i];
            return true;
        }
        if (arg.rfind(flag + "=", 0) == 0) {
            out = arg.substr(flag.size() + 1);
            return true;
        }
        return false;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        std::string value;
        if (arg == "--all") {
            a.all = true;
        } else if (arg == "--quick") {
            a.scale = 0.25;
        } else if (arg == "--metrics") {
            a.obs.metricsTable = true;
        } else if (arg.rfind("--metrics=", 0) == 0) {
            a.obs.metricsPath = arg.substr(std::string("--metrics=").size());
            if (a.obs.metricsPath.empty())
                fatal("--metrics= expects a file path");
        } else if (value_of(arg, "--trace", i, value)) {
            a.obs.tracePath = value;
        } else if (value_of(arg, "--scale", i, value)) {
            a.scale = parseScale(value);
        } else if (value_of(arg, "--set", i, value)) {
            a.opts.addSet(value);
        } else if (value_of(arg, "--workload", i, value)) {
            a.opts.setWorkload(value);
        } else if (value_of(arg, "--format", i, value)) {
            const auto f = parseSinkFormat(value);
            if (!f)
                fatal("unknown --format '", value,
                      "' (expected table, csv or jsonl)");
            a.format = *f;
        } else if (value_of(arg, "--out", i, value)) {
            a.out_path = value;
        } else if (value_of(arg, "--cache-dir", i, value)) {
            ArtifactCache::instance().setDiskDir(value);
        } else if (arg == "--no-cache") {
            ArtifactCache::instance().setEnabled(false);
        } else if (!arg.empty() && arg[0] == '-') {
            fatal("unknown option '", arg, "' (see 'rif help')");
        } else {
            a.names.push_back(arg);
        }
    }

    if (a.all && !a.names.empty())
        fatal("--all cannot be combined with scenario names");
    if (!a.all && a.names.empty())
        fatal("rif ", command,
              " expects a scenario name or --all (see 'rif list')");
    return a;
}

std::vector<const Scenario *>
selectScenarios(const RunArgs &a)
{
    if (a.all)
        return ScenarioRegistry::instance().all();
    std::vector<const Scenario *> selected;
    for (const std::string &name : a.names) {
        const Scenario *s = ScenarioRegistry::instance().find(name);
        if (s == nullptr)
            fatal("unknown scenario '", name, "' (see 'rif list')");
        selected.push_back(s);
    }
    return selected;
}

int
cmdRun(const std::vector<std::string> &args)
{
    const RunArgs a = parseRunArgs(args, "run");
    const auto selected = selectScenarios(a);

    std::ofstream file;
    if (!a.out_path.empty()) {
        file.open(a.out_path);
        if (!file)
            fatal("cannot open --out file '", a.out_path, "'");
    }
    std::ostream &os = a.out_path.empty() ? std::cout : file;

    runScenarios(selected, a.format, os, a.scale, a.opts, a.obs);
    return 0;
}

/**
 * `rif metrics <scenario>`: run the scenario body through a NullSink —
 * discarding its figures — and print only the metric registry through
 * the selected ResultSink format.
 */
int
cmdMetrics(const std::vector<std::string> &args)
{
    const RunArgs a = parseRunArgs(args, "metrics");
    const auto selected = selectScenarios(a);

    std::ofstream file;
    if (!a.out_path.empty()) {
        file.open(a.out_path);
        if (!file)
            fatal("cannot open --out file '", a.out_path, "'");
    }
    std::ostream &os = a.out_path.empty() ? std::cout : file;

    const auto sink = makeSink(a.format, os);
    for (const Scenario *s : selected) {
        metrics::MetricsScope scope;
        NullSink null;
        runScenario(*s, null, a.scale, a.opts);
        sink->table(scope.finish().toTable(std::string("metrics: ") +
                                           s->name));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        printUsage(std::cerr);
        return 1;
    }
    const std::string cmd = args[0];
    args.erase(args.begin());

    if (cmd == "list")
        return cmdList();
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "metrics")
        return cmdMetrics(args);
    if (cmd == "help" || cmd == "--help" || cmd == "-h")
        return cmdHelp(args);
    rif::fatal("unknown command '", cmd, "' (see 'rif help')");
}
