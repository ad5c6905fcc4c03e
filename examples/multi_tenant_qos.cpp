/**
 * @file
 * Multi-tenant QoS scenario: a latency-sensitive read-mostly tenant
 * shares an aged drive with a noisy write-heavy neighbour, each on its
 * own NVMe submission queue and LBA partition. The study compares the
 * victim tenant's read latency across retry architectures, alone on
 * the drive and beside the neighbour — the isolation question cloud
 * providers actually ask.
 *
 *   ./multi_tenant_qos [pe_cycles]
 */

#include <iostream>
#include <string>

#include "core/rif.h"

namespace {

using namespace rif;
using namespace rif::ssd;

struct TenantResult
{
    double victimP99Us = 0.0;
    double victimMeanUs = 0.0;
    double totalMBps = 0.0;
};

TenantResult
runScenario(PolicyKind policy, bool shared, double pe)
{
    SsdConfig cfg;
    cfg.policy = policy;
    cfg.peCycles = pe;
    cfg.queueDepth = 16;

    // Victim: read-only, cold-heavy (archival lookups).
    trace::WorkloadSpec victim;
    victim.name = "victim";
    victim.readRatio = 1.0;
    victim.coldReadRatio = 0.85;
    victim.footprintPages = 1u << 18; // 4 GiB

    // Neighbour: write-heavy churn (log ingestion).
    trace::WorkloadSpec noisy;
    noisy.name = "noisy";
    noisy.readRatio = 0.10;
    noisy.coldReadRatio = 0.10;
    noisy.footprintPages = 1u << 18;

    trace::SyntheticWorkload victim_gen(victim, 3000, 17);
    trace::SyntheticWorkload noisy_gen(noisy, 3000, 18);
    trace::OffsetTrace noisy_shifted(noisy_gen, victim.footprintPages);

    Ssd drive(cfg);
    const SsdStats st =
        shared ? drive.runMultiQueue({&victim_gen, &noisy_shifted})
               : drive.runMultiQueue({&victim_gen});

    TenantResult out;
    out.victimP99Us = st.queueReadLatencyUs[0].percentile(99.0);
    out.victimMeanUs = st.queueReadLatencyUs[0].mean();
    out.totalMBps = st.ioBandwidthMBps();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const double pe = argc > 1 ? std::stod(argv[1]) : 2000.0;

    Table t("Victim tenant read latency alone and while sharing the "
            "drive with a write-heavy neighbour (@ " +
            Table::num(pe, 0) + " P/E)");
    t.setHeader({"retry architecture", "tenants", "victim p99(us)",
                 "victim mean(us)", "drive MB/s"});
    for (PolicyKind p :
         {PolicyKind::Sentinel, PolicyKind::SwiftRead, PolicyKind::Rif}) {
        for (bool shared : {false, true}) {
            const TenantResult r = runScenario(p, shared, pe);
            t.addRow({policyName(p), shared ? "victim+noisy" : "victim",
                      Table::num(r.victimP99Us, 0),
                      Table::num(r.victimMeanUs, 0),
                      Table::num(r.totalMBps, 0)});
        }
    }
    t.print(std::cout);

    std::cout <<
        "\nThe neighbour's 400 us programs inflate the victim's latency "
        "under every\narchitecture, while RiF removes the victim's own "
        "retry inflation: it\ncuts the shared-drive tail the most.\n";
    return 0;
}
