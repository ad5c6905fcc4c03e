/**
 * @file
 * Fig. 18 — flash-channel usage breakdown (IDLE / COR / UNCOR /
 * ECCWAIT) for the two most read-intensive workloads, Ali121 and
 * Ali124, across wear levels and policies. The paper highlights SWR
 * wasting 54.4% of the channel in UNCOR+ECCWAIT on Ali124 at 2K P/E,
 * while RiF wastes 1.8% (vs RPSSD's 19.9% on Ali121) under UNCOR.
 */

#include "common/metrics.h"
#include "core/experiment.h"
#include "core/scenario.h"

namespace {

using namespace rif;
using namespace rif::ssd;

/**
 * Fraction of channel time spent in the state whose counter suffix is
 * `state` (e.g. "uncor_ticks"), read from the run's metric registry
 * (`ssd.chan<N>.*_ticks`). Same math as SsdStats::channelFraction: the
 * per-channel fractions averaged over channels.
 */
double
stateFraction(const metrics::Snapshot &m, const char *state)
{
    static constexpr const char *kStates[] = {
        "idle_ticks", "cor_ticks", "uncor_ticks", "eccwait_ticks",
        "write_ticks"};
    double sum = 0.0;
    int channels = 0;
    for (int ch = 0;; ++ch) {
        const std::string prefix = "ssd.chan" + std::to_string(ch) + ".";
        if (!m.find(prefix + kStates[0]))
            break;
        std::uint64_t total = 0, in_state = 0;
        for (const char *s : kStates) {
            const std::uint64_t t = m.value(prefix + s);
            total += t;
            if (std::string_view(s) == state)
                in_state = t;
        }
        sum += total ? static_cast<double>(in_state) /
                           static_cast<double>(total)
                     : 0.0;
        ++channels;
    }
    return channels ? sum / static_cast<double>(channels) : 0.0;
}

void
run(core::ScenarioContext &ctx)
{
    RunScale rs;
    rs.requests = ctx.scaled(5000);
    ctx.opts.applyTo(rs);

    const PolicyKind policies[] = {
        PolicyKind::Sentinel, PolicyKind::SwiftRead,
        PolicyKind::SwiftReadPlus, PolicyKind::RpController,
        PolicyKind::Rif};
    const double pes[] = {0.0, 1000.0, 2000.0};
    const char *workloads[] = {"Ali121", "Ali124"};

    // One job per (workload, pe, policy) point; each builds its own
    // Experiment so the sweep threads deterministically.
    struct Point
    {
        const char *workload;
        double pe;
        PolicyKind policy;
    };
    std::vector<Point> points;
    for (const char *w : workloads)
        for (double pe : pes)
            for (PolicyKind p : policies)
                points.push_back({w, pe, p});

    const auto results = parallelRuns(points.size(), [&](std::size_t i) {
        Experiment e;
        e.withPolicy(points[i].policy).withPeCycles(points[i].pe);
        ctx.opts.applyTo(e.config());
        return e.run(points[i].workload, rs);
    });

    std::size_t at = 0;
    for (const char *w : workloads) {
        Table t(std::string("Fig. 18: channel usage ratio, ") + w);
        t.setHeader({"P/E", "policy", "IDLE", "COR", "UNCOR", "ECCWAIT",
                     "WRITE"});
        for (double pe : pes) {
            for (PolicyKind p : policies) {
                // Channel residency comes from the run's metric
                // registry rather than the SsdStats accumulators.
                const metrics::Snapshot &m = results[at++].metrics;
                t.addRow({Table::num(pe, 0), policyName(p),
                          Table::num(stateFraction(m, "idle_ticks"), 2),
                          Table::num(stateFraction(m, "cor_ticks"), 2),
                          Table::num(stateFraction(m, "uncor_ticks"), 2),
                          Table::num(stateFraction(m, "eccwait_ticks"),
                                     2),
                          Table::num(stateFraction(m, "write_ticks"),
                                     2)});
            }
        }
        ctx.sink.table(t);
        ctx.sink.text("\n");
    }

    ctx.sink.text(
        "Paper shape: off-chip policies waste a growing UNCOR+ECCWAIT "
        "share with\nwear; RPSSD eliminates ECCWAIT but keeps UNCOR; "
        "RiF eliminates both and\nspends the channel almost entirely "
        "on correctable transfers.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(fig18_channel_usage,
                      "Channel usage breakdown",
                      "Fig. 18 (Ali121 / Ali124)",
                      run);
