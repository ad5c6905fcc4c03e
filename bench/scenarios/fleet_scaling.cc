/**
 * @file
 * Fleet scaling: the same workload replayed on 1, 4 and 16 drives.
 * Reports the drive-parallel simulator's deterministic load profile —
 * kernel events, conservative synchronization rounds — alongside the
 * modeled makespan and IOPS, so the EXPERIMENTS.md wall-clock table
 * (events/s at RIF_THREADS=1/2/8) has a stable events denominator.
 * All emitted values are simulated quantities: the sink output is
 * byte-identical at any RIF_THREADS / --jobs setting.
 */

#include <string>

#include "common/metrics.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "fabric/fleet.h"

namespace {

using namespace rif;

void
run(core::ScenarioContext &ctx)
{
    const std::string wl = ctx.workload("Ali124");

    RunScale rs;
    rs.requests = ctx.scaled(20000);
    ctx.opts.applyTo(rs);

    Table t("Fleet scaling (" + wl + ", RiFSSD @ 2K P/E, striped)");
    t.setHeader({"drives", "commands", "sub_ios", "sync_rounds",
                 "drive_events", "makespan(ms)", "IOPS"});

    for (const int drives : {1, 4, 16}) {
        fabric::FleetConfig fc;
        fc.qd = 256;
        ctx.opts.applyTo(fc);
        // The drive count is the sweep variable, not an override knob
        // (Fleet re-validates the combination).
        fc.drives = drives;

        ssd::SsdConfig cfg;
        cfg.policy = ssd::PolicyKind::Rif;
        cfg.peCycles = 2000.0;
        ctx.opts.applyTo(cfg);

        trace::SyntheticWorkload source(trace::workloadByName(wl),
                                        rs.requests, rs.seed);
        fabric::Fleet fleet(cfg, fc);
        metrics::MetricsScope scope;
        const fabric::FleetStats fs = fleet.run(source);
        scope.finish();

        t.addRow({std::to_string(fc.drives), Table::num(fs.commands),
                  Table::num(fs.subIos), Table::num(fs.syncRounds),
                  Table::num(fs.driveEvents),
                  Table::num(ticksToMs(fs.makespan), 2),
                  Table::num(fs.iops(), 0)});
    }
    ctx.sink.table(t);
    ctx.sink.text(
        "\nEach drive advances on its own event lane between "
        "interconnect-crossing\nbarriers, so wall-clock (not shown: "
        "host-dependent) shrinks with\nRIF_THREADS while every number "
        "above stays bit-identical.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(fleet_scaling,
                      "Fleet scaling: drive-parallel simulation",
                      "drive-parallel DES throughput study",
                      run);
