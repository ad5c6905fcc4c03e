/**
 * @file
 * Fleet retry storm: one aged drive (high P/E, retry-heavy) in an
 * otherwise healthy fleet. Under striping every command that touches
 * the aged drive eats its retry latency; replicated placement lets the
 * host steer reads to the least-loaded replica, draining load away
 * from the storming drive. `--set fleet.agedDrives/fleet.agedPeCycles`
 * shape the storm.
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
    rs.requests = ctx.scaled(16000);
    ctx.opts.applyTo(rs);

    Table t("Fleet retry storm: one aged drive, striped vs replicated "
            "(" + wl + ", RiFSSD)");
    t.setHeader({"placement", "p50(us)", "p99(us)", "p99.9(us)",
                 "balanced_chunks", "aged_retries", "healthy_retries"});

    for (fabric::PlacementKind placement :
         {fabric::PlacementKind::Striped,
          fabric::PlacementKind::Replicated}) {
        fabric::FleetConfig fc;
        fc.drives = 4;
        fc.qd = 256;
        fc.placement = placement;
        fc.replicas = 2;
        fc.agedDrives = 1;
        fc.agedPeCycles = 5000.0;
        ctx.opts.applyTo(fc);

        ssd::SsdConfig cfg;
        cfg.policy = ssd::PolicyKind::Rif;
        cfg.peCycles = 500.0;
        ctx.opts.applyTo(cfg);

        trace::SyntheticWorkload source(trace::workloadByName(wl),
                                        rs.requests, rs.seed);
        fabric::Fleet fleet(cfg, fc);
        metrics::MetricsScope scope;
        const fabric::FleetStats fs = fleet.run(source);
        scope.finish();

        std::uint64_t aged = 0, healthy = 0;
        for (std::size_t d = 0; d < fs.drives.size(); ++d)
            (static_cast<int>(d) < fc.agedDrives ? aged : healthy) +=
                fs.drives[d].retriedReads;
        t.addRow({fabric::placementName(placement),
                  Table::num(fs.readLatencyUs.percentile(50), 1),
                  Table::num(fs.readLatencyUs.percentile(99), 1),
                  Table::num(fs.readLatencyUs.percentile(99.9), 1),
                  Table::num(fs.replicaReadsBalanced),
                  Table::num(aged), Table::num(healthy)});
    }
    ctx.sink.table(t);
    ctx.sink.text(
        "\nStriping forces every stripe crossing the aged drive to wait "
        "out its\nretries; replication lets the host's least-loaded "
        "steering shift read\nchunks to healthy replicas, trading "
        "capacity for a flatter storm tail.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(fleet_retry_storm,
                      "Fleet retry storm: aged drive, placement policies",
                      "rack-scale retry-storm study (§VI tail analysis)",
                      run);
