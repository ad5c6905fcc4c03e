/**
 * @file
 * Extension bench — endurance sweep: effective bandwidth across the
 * whole drive lifetime (0–3K P/E) for every retry architecture. Fig. 17
 * samples three wear points; this sweep shows the full trajectories and
 * where each architecture's bandwidth crosses below a provisioning
 * threshold.
 */

#include "core/experiment.h"
#include "core/scenario.h"

namespace {

using namespace rif;
using namespace rif::ssd;

void
run(core::ScenarioContext &ctx)
{
    const std::string wl = ctx.workload("Sys0");

    RunScale rs;
    rs.requests = ctx.scaled(4000);
    ctx.opts.applyTo(rs);

    const PolicyKind policies[] = {
        PolicyKind::FixedSequence, PolicyKind::Sentinel,
        PolicyKind::SwiftRead, PolicyKind::SwiftReadPlus,
        PolicyKind::Rif, PolicyKind::Zero};

    Table t("I/O bandwidth (MB/s) on " + wl + " vs P/E cycles");
    std::vector<std::string> head{"policy"};
    const double pes[] = {0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0,
                          3000.0};
    for (double pe : pes)
        head.push_back(Table::num(pe, 0));
    t.setHeader(head);

    // Flatten the policy x pe grid into one parallel job list; each job
    // builds its own Experiment so the sweep threads deterministically.
    struct Point
    {
        PolicyKind policy;
        double pe;
    };
    std::vector<Point> points;
    for (PolicyKind p : policies)
        for (double pe : pes)
            points.push_back({p, pe});

    const auto results = parallelRuns(points.size(), [&](std::size_t i) {
        Experiment e;
        e.withPolicy(points[i].policy).withPeCycles(points[i].pe);
        ctx.opts.applyTo(e.config());
        return e.run(wl, rs);
    });

    std::size_t at = 0;
    for (PolicyKind p : policies) {
        std::vector<std::string> row{policyName(p)};
        for (double pe : pes) {
            (void)pe;
            row.push_back(Table::num(results[at++].bandwidthMBps(), 0));
        }
        t.addRow(row);
    }
    ctx.sink.table(t);
    ctx.sink.text(
        "\nThe off-chip architectures decay steadily with wear while "
        "RiF holds near\nthe no-retry ceiling across the full rated "
        "endurance — the lifetime\nconsequence of the paper's Fig. 17 "
        "snapshots.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(ablation_endurance,
                      "Endurance sweep: bandwidth over drive lifetime",
                      "lifetime view of Fig. 17",
                      run);
