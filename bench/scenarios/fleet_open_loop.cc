/**
 * @file
 * Fleet offered-load sweep (open loop): Poisson arrivals at a fixed
 * offered rate, independent of completions, against a rack of drives
 * with a bounded host queue. Sweeping the rate traces the classic
 * hockey-stick — flat read tails while the fleet keeps up, then
 * queue-dominated p99/p99.9 and finally drops once the host queue
 * saturates. RiF's on-die early retry raises the knee: the same rack
 * sustains a higher offered load before the tail departs.
 */

#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "fabric/fleet.h"
#include "ssd/arrival.h"
#include "trace/workload.h"

namespace {

using namespace rif;

void
run(core::ScenarioContext &ctx)
{
    const std::string wl = ctx.workload("Ali124");

    RunScale rs;
    rs.requests = ctx.scaled(6000);
    ctx.opts.applyTo(rs);

    fabric::FleetConfig fc;
    fc.drives = 4;
    fc.qd = 64;
    ctx.opts.applyTo(fc);

    trace::WorkloadConfig base;
    base.arrival = "poisson";
    base.queueCap = 256;
    ctx.opts.applyTo(base);

    const std::vector<double> rates_kiops = {25, 50, 100, 200, 400};

    Table t("Fleet open-loop offered-load sweep (" + wl + ", " +
            std::to_string(fc.drives) + " drives, device QD " +
            std::to_string(fc.qd) + ", host queue " +
            std::to_string(base.queueCap) + " @ 3K P/E)");
    t.setHeader({"kIOPS", "policy", "p50(us)", "p99(us)", "p99.9(us)",
                 "enqueued", "dropped"});

    for (double rate : rates_kiops) {
        for (ssd::PolicyKind policy :
             {ssd::PolicyKind::FixedSequence, ssd::PolicyKind::Rif}) {
            ssd::SsdConfig cfg;
            cfg.policy = policy;
            cfg.peCycles = 3000.0;
            ctx.opts.applyTo(cfg);

            trace::WorkloadConfig wc = base;
            wc.rateKiops = rate;
            const auto source = trace::openWorkload(
                wc, trace::workloadByName(wl), rs.requests, rs.seed);
            const auto arrival = ssd::makeArrivalPolicy(wc, fc.qd);
            fabric::Fleet fleet(cfg, fc);
            metrics::MetricsScope scope;
            const fabric::FleetStats fs = fleet.run(*source, *arrival);
            scope.finish();

            t.addRow({Table::num(rate, 0), ssd::policyName(policy),
                      Table::num(fs.readLatencyUs.percentile(50), 1),
                      Table::num(fs.readLatencyUs.percentile(99), 1),
                      Table::num(fs.readLatencyUs.percentile(99.9), 1),
                      Table::num(arrival->stats().enqueued),
                      Table::num(arrival->stats().dropped)});
        }
    }
    ctx.sink.table(t);
    ctx.sink.text(
        "\nBelow the knee both policies serve at device latency; past "
        "it the bounded\nhost queue dominates the tail and finally "
        "sheds load. The conventional\nretry sequence pulls the knee "
        "left — every off-chip retry burns service\ncapacity — so RiF "
        "sustains a visibly higher offered load at the same "
        "tail.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(fleet_open_loop,
                      "Fleet open-loop offered-load sweep: "
                      "hockey-stick knee, CONV vs RiF",
                      "open-loop extension of Fig. 17/19",
                      run);
