/**
 * @file
 * Fig. 19 — cumulative distribution of SSD-level read latencies in
 * Ali124 across wear levels and policies, with tail percentiles. The
 * paper reports RiF cutting the 99.99th-percentile latency at 2K P/E
 * by 91.8% / 82.6% / 56.3% versus SENC / SWR / SWR+.
 */

#include "common/metrics.h"
#include "core/experiment.h"
#include "core/scenario.h"

namespace {

using namespace rif;
using namespace rif::ssd;

void
run(core::ScenarioContext &ctx)
{
    const std::string wl = ctx.workload("Ali124");

    RunScale rs;
    rs.requests = ctx.scaled(8000);
    ctx.opts.applyTo(rs);

    const PolicyKind policies[] = {
        PolicyKind::Sentinel, PolicyKind::SwiftRead,
        PolicyKind::SwiftReadPlus, PolicyKind::RpController,
        PolicyKind::Rif, PolicyKind::Zero};
    const double pes[] = {0.0, 1000.0, 2000.0};

    // One job per (pe, policy) point, all on one workload; each builds
    // its own Experiment so the sweep threads deterministically.
    struct Point
    {
        double pe;
        PolicyKind policy;
    };
    std::vector<Point> points;
    for (double pe : pes)
        for (PolicyKind p : policies)
            points.push_back({pe, p});

    const auto results = parallelRuns(points.size(), [&](std::size_t i) {
        Experiment e;
        e.withPolicy(points[i].policy).withPeCycles(points[i].pe);
        ctx.opts.applyTo(e.config());
        return e.run(wl, rs);
    });

    std::size_t at = 0;
    for (double pe : pes) {
        Table t("Fig. 19 @ " + Table::num(pe, 0) +
                " P/E: read latency percentiles (us)");
        t.setHeader({"policy", "p50", "p90", "p99", "p99.9", "p99.99",
                     "mean"});
        double senc_tail = 0.0;
        std::vector<std::pair<const char *, double>> tails;
        for (PolicyKind p : policies) {
            // Latencies come from the run's metric registry
            // (ssd.read_latency_us) rather than SsdStats.
            const metrics::Snapshot &m = results[at++].metrics;
            const char *lat = "ssd.read_latency_us";
            const double tail = m.distPercentile(lat, 99.99);
            if (p == PolicyKind::Sentinel)
                senc_tail = tail;
            tails.emplace_back(policyName(p), tail);
            t.addRow({policyName(p),
                      Table::num(m.distPercentile(lat, 50), 0),
                      Table::num(m.distPercentile(lat, 90), 0),
                      Table::num(m.distPercentile(lat, 99), 0),
                      Table::num(m.distPercentile(lat, 99.9), 0),
                      Table::num(tail, 0),
                      Table::num(m.distMean(lat), 0)});
        }
        ctx.sink.table(t);
        for (const auto &[name, tail] : tails) {
            if (std::string(name) == "RiFSSD" && senc_tail > 0.0) {
                ctx.sink.text(
                    "p99.99 reduction of RiFSSD vs SENC: " +
                    Table::num(100.0 * (1.0 - tail / senc_tail), 1) +
                    "%\n");
            }
        }
        ctx.sink.text("\n");
    }

    ctx.sink.text(
        "Paper shape: the off-chip policies' CDFs develop long tails "
        "with wear;\nRiF's stays close to SSDzero's.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(fig19_latency_cdf,
                      "Read latency CDF and tail, Ali124",
                      "Fig. 19 (p99.99 cut by 91.8%/82.6%/56.3% at 2K)",
                      run);
