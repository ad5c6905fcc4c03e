/**
 * @file
 * Fig. 6 — motivation: I/O bandwidth of SSDone (ideal off-chip retry,
 * NRR = 1) versus SSDzero (no retries) on four workloads at 0K/1K/2K
 * P/E cycles. The paper reports average degradations of 19.4%, 34.9%
 * and 50.4%.
 */

#include <cmath>

#include "core/experiment.h"
#include "core/scenario.h"

namespace {

using namespace rif;

void
run(core::ScenarioContext &ctx)
{
    RunScale rs;
    rs.requests = ctx.scaled(6000);
    ctx.opts.applyTo(rs);

    const char *workloads[] = {"Ali121", "Ali124", "Sys0", "Sys1"};
    const double pes[] = {0.0, 1000.0, 2000.0};

    Table t("Fig. 6: I/O bandwidth (MB/s)");
    t.setHeader({"P/E", "workload", "SSDzero", "SSDone", "drop%"});

    for (double pe : pes) {
        double gm_drop = 1.0;
        int n = 0;
        for (const char *w : workloads) {
            Experiment zero, one;
            zero.withPolicy(ssd::PolicyKind::Zero).withPeCycles(pe);
            one.withPolicy(ssd::PolicyKind::IdealOffChip).withPeCycles(pe);
            ctx.opts.applyTo(zero.config());
            ctx.opts.applyTo(one.config());
            const double bw_zero = zero.run(w, rs).bandwidthMBps();
            const double bw_one = one.run(w, rs).bandwidthMBps();
            const double drop = 100.0 * (1.0 - bw_one / bw_zero);
            gm_drop *= bw_one / bw_zero;
            ++n;
            t.addRow({Table::num(pe, 0), w, Table::num(bw_zero, 0),
                      Table::num(bw_one, 0), Table::num(drop, 1)});
        }
        t.addRow({Table::num(pe, 0), "average", "", "",
                  Table::num(100.0 * (1.0 - std::pow(gm_drop, 1.0 / n)),
                             1)});
    }
    ctx.sink.table(t);
    ctx.sink.text("\nPaper: average drops of 19.4% (0K), 34.9% (1K), "
                  "50.4% (2K); Ali124 at 2K\nlimited to 2831 MB/s vs "
                  "6026 MB/s for SSDzero.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(fig06_motivation,
                      "SSDone vs SSDzero bandwidth",
                      "Fig. 6 + §III-B2 (19.4/34.9/50.4% average drops)",
                      run);
