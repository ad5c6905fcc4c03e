/**
 * @file
 * Extension bench — the conventional fixed-VREF-sequence retry baseline
 * of §II-B2: how much of the off-chip penalty comes from NRR > 1 (what
 * Sentinel/Swift-Read fix) versus from the one unavoidable failed
 * off-chip round (what only RiF fixes). Sweeps the VREF step quality.
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
    rs.requests = ctx.scaled(5000);
    ctx.opts.applyTo(rs);

    Table t("Conventional retry vs modern solutions (" + wl +
            " @ 2K P/E)");
    t.setHeader({"config", "bandwidth(MB/s)", "uncor_xfers/retried",
                 "read p99(us)"});

    struct Point
    {
        PolicyKind policy;
        double stepFactor;
        const char *label;
    };
    const std::vector<Point> points{
        {PolicyKind::FixedSequence, 0.50, "CONV coarse steps (0.50)"},
        {PolicyKind::FixedSequence, 0.65, "CONV default steps (0.65)"},
        {PolicyKind::FixedSequence, 0.80, "CONV fine steps (0.80)"},
        {PolicyKind::IdealOffChip, 0.65, "SSDone (ideal NRR=1)"},
        {PolicyKind::Sentinel, 0.65, "SENC"},
        {PolicyKind::Rif, 0.65, "RiFSSD"},
    };

    const auto results = parallelRuns(points.size(), [&](std::size_t i) {
        Experiment e;
        e.withPolicy(points[i].policy).withPeCycles(2000.0);
        e.config().seqStepFactor = points[i].stepFactor;
        ctx.opts.applyTo(e.config());
        return e.run(wl, rs);
    });

    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &r = results[i];
        const double per_retry =
            r.stats.retriedReads
                ? static_cast<double>(r.stats.uncorTransfers) /
                      static_cast<double>(r.stats.retriedReads)
                : 0.0;
        t.addRow({points[i].label, Table::num(r.bandwidthMBps(), 0),
                  Table::num(per_retry, 2),
                  Table::num(r.stats.readLatencyUs.percentile(99), 0)});
    }

    ctx.sink.table(t);
    ctx.sink.text(
        "\nuncor_xfers/retried approximates NRR: finer VREF steps mean "
        "more failed\noff-chip rounds per retry. NRR-reduction (SSDone) "
        "recovers most of the\nconventional loss, but the residual gap "
        "to RiF is the first failed round\nthat no off-chip scheme can "
        "avoid — the paper's core argument.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(ablation_conventional,
                      "Conventional fixed-sequence retry baseline",
                      "extension of §II-B2 / Eq. (1): tREAD amplified "
                      "(1 + NRR) times",
                      run);
