/**
 * @file
 * §VI-C — power/performance/area overhead of the RP module and the
 * energy balance of the RiF scheme: per-prediction cost (3.2 nJ)
 * against the off-chip transfer energy refunded per avoided
 * uncorrectable page movement (907 nJ), evaluated both analytically
 * and on a simulated read-intensive workload.
 */

#include "core/experiment.h"
#include "core/scenario.h"
#include "odear/overhead.h"

namespace {

using namespace rif;
using namespace rif::odear;

void
run(core::ScenarioContext &ctx)
{
    const std::string wl = ctx.workload("Ali124");

    const OverheadModel model;
    const auto &c = model.constants();

    Table t("Synthesis-derived constants (130 nm, 100 MHz)");
    t.setHeader({"metric", "value", "note"});
    t.addRow({"RP area", Table::num(c.areaMm2, 3) + " mm^2",
              Table::num(100.0 * model.areaOverheadFraction(), 4) +
                  "% of a " + Table::num(c.flashDieAreaMm2, 0) +
                  " mm^2 die"});
    t.addRow({"RP power", Table::num(c.powerMw, 2) + " mW", ""});
    t.addRow({"energy per prediction",
              Table::num(c.energyPerPredictionNj, 1) + " nJ",
              "paid by every read"});
    t.addRow({"energy saved per avoided transfer",
              Table::num(c.energySavedPerAvoidedTransferNj, 0) + " nJ",
              "unrecoverable page movement"});
    t.addRow({"break-even",
              Table::num(model.breakEvenReadsPerRetry(), 0) +
                  " reads/avoided-retry",
              "RiF saves energy below this"});
    ctx.sink.table(t);

    // Workload-level energy balance measured on the simulator.
    RunScale rs;
    rs.requests = ctx.scaled(4000);
    ctx.opts.applyTo(rs);
    Table w("Net RP energy on " + wl + " (negative = RiF saves energy)");
    w.setHeader({"P/E", "predictions", "avoided_transfers",
                 "net_energy(uJ)"});
    for (double pe : {0.0, 1000.0, 2000.0}) {
        Experiment e;
        e.withPolicy(ssd::PolicyKind::Rif).withPeCycles(pe);
        ctx.opts.applyTo(e.config());
        const auto r = e.run(wl, rs);
        const double net = model.netEnergyNj(r.stats.rpPredictions,
                                             r.stats.avoidedTransfers) /
                           1000.0;
        w.addRow({Table::num(pe, 0), Table::num(r.stats.rpPredictions),
                  Table::num(r.stats.avoidedTransfers),
                  Table::num(net, 1)});
    }
    ctx.sink.table(w);
    ctx.sink.text(
        "\nPaper: the RP module's area/power are negligible and "
        "the scheme is net\nenergy-positive whenever retries "
        "are frequent.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(overhead_ppa,
                      "RP module PPA and energy overhead",
                      "Section VI-C",
                      run);
