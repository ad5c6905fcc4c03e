/**
 * @file
 * Fleet tail latency (rack-scale extension of Fig. 17/19): N drives
 * behind a modeled interconnect replay one workload closed-loop at a
 * fleet-wide queue depth; the host-observed read p50/p99/p99.9 compare
 * RiFSSD against the conventional fixed-sequence retry at a wear point
 * where retries dominate the tail. `--set fleet.drives/fleet.qd/
 * fleet.placement` resize the rack.
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

    fabric::FleetConfig fc;
    fc.drives = 4;
    fc.qd = 256;
    ctx.opts.applyTo(fc);

    Table t("Fleet read tail latency (" + wl + ", " +
            std::to_string(fc.drives) + " drives, " +
            fabric::placementName(fc.placement) + ", QD " +
            std::to_string(fc.qd) + " @ 3K P/E)");
    t.setHeader({"policy", "p50(us)", "p99(us)", "p99.9(us)", "IOPS",
                 "retried_reads"});

    for (ssd::PolicyKind policy :
         {ssd::PolicyKind::FixedSequence, ssd::PolicyKind::Rif}) {
        ssd::SsdConfig cfg;
        cfg.policy = policy;
        cfg.peCycles = 3000.0;
        ctx.opts.applyTo(cfg);

        trace::SyntheticWorkload source(trace::workloadByName(wl),
                                        rs.requests, rs.seed);
        fabric::Fleet fleet(cfg, fc);
        metrics::MetricsScope scope;
        const fabric::FleetStats fs = fleet.run(source);
        scope.finish();

        std::uint64_t retried = 0;
        for (const ssd::SsdStats &d : fs.drives)
            retried += d.retriedReads;
        t.addRow({ssd::policyName(policy),
                  Table::num(fs.readLatencyUs.percentile(50), 1),
                  Table::num(fs.readLatencyUs.percentile(99), 1),
                  Table::num(fs.readLatencyUs.percentile(99.9), 1),
                  Table::num(fs.iops(), 0), Table::num(retried)});
    }
    ctx.sink.table(t);
    ctx.sink.text(
        "\nAt rack scale a single slow read stalls a whole striped "
        "command, so the\nfleet p99/p99.9 amplify per-drive retry "
        "latency; RiF's on-die early retry\npulls the fleet tail close "
        "to its median.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(fleet_p99,
                      "Fleet tail latency: RiF vs conventional retry",
                      "rack-scale extension of Fig. 17/19",
                      run);
