/**
 * @file
 * Ablation — host queue depth: how much outstanding parallelism each
 * retry architecture needs to saturate, and where the retry overhead
 * moves from latency into lost bandwidth. QD sweeps are the standard
 * first figure of any SSD evaluation.
 */

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
    rs.requests = ctx.scaled(4000);
    ctx.opts.applyTo(rs);

    Table t("Bandwidth (MB/s) and read p99 (us) vs QD, " + wl +
            " @ 1K P/E");
    t.setHeader({"QD", "SSDzero", "SENC", "RiFSSD", "RiF p99(us)"});
    const std::vector<int> depths{1, 2, 4, 8, 16, 32, 64, 128};
    const PolicyKind policies[] = {PolicyKind::Zero,
                                   PolicyKind::Sentinel, PolicyKind::Rif};
    struct Point
    {
        int qd;
        PolicyKind policy;
    };
    std::vector<Point> points;
    for (int qd : depths)
        for (PolicyKind p : policies)
            points.push_back({qd, p});

    const auto results = parallelRuns(points.size(), [&](std::size_t i) {
        Experiment e;
        e.withPolicy(points[i].policy).withPeCycles(1000.0);
        e.config().queueDepth = points[i].qd;
        ctx.opts.applyTo(e.config());
        return e.run(wl, rs);
    });

    std::size_t at = 0;
    for (int qd : depths) {
        std::vector<std::string> row{Table::num(std::uint64_t(qd))};
        double rif_p99 = 0.0;
        for (PolicyKind p : policies) {
            const auto &r = results[at++];
            row.push_back(Table::num(r.bandwidthMBps(), 0));
            if (p == PolicyKind::Rif)
                rif_p99 = r.stats.readLatencyUs.percentile(99.0);
        }
        row.push_back(Table::num(rif_p99, 0));
        t.addRow(row);
    }
    ctx.sink.table(t);
    ctx.sink.text(
        "\nAll architectures need deep queues to fill 32 dies; the "
        "off-chip retry\npenalty persists at every depth, so it is a "
        "true bandwidth loss rather\nthan a parallelism artifact.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(ablation_queue_depth,
                      "Ablation: host queue-depth sweep",
                      "saturation behaviour underlying Figs. 6/17",
                      run);
