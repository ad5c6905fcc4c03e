/**
 * @file
 * Fig. 6 — motivation: I/O bandwidth of SSDone (ideal off-chip retry,
 * NRR = 1) versus SSDzero (no retries) on four workloads at 0K/1K/2K
 * P/E cycles. The paper reports average degradations of 19.4%, 34.9%
 * and 50.4%.
 */

#include <cmath>
#include <iterator>

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
    constexpr std::size_t kWorkloads = std::size(workloads);

    // Run 2 * (p * kWorkloads + w) is SSDzero, the next one SSDone.
    const auto results = parallelRuns(
        2 * std::size(pes) * kWorkloads, [&](std::size_t i) {
            Experiment e;
            e.withPolicy(i % 2 ? ssd::PolicyKind::IdealOffChip
                               : ssd::PolicyKind::Zero)
                .withPeCycles(pes[i / (2 * kWorkloads)]);
            ctx.opts.applyTo(e.config());
            return e.run(workloads[i / 2 % kWorkloads], rs);
        });

    Table t("Fig. 6: I/O bandwidth (MB/s)");
    t.setHeader({"P/E", "workload", "SSDzero", "SSDone", "drop%"});

    for (std::size_t p = 0; p < std::size(pes); ++p) {
        double gm_drop = 1.0;
        int n = 0;
        for (std::size_t w = 0; w < kWorkloads; ++w) {
            const std::size_t i = 2 * (p * kWorkloads + w);
            const double bw_zero = results[i].bandwidthMBps();
            const double bw_one = results[i + 1].bandwidthMBps();
            const double drop = 100.0 * (1.0 - bw_one / bw_zero);
            gm_drop *= bw_one / bw_zero;
            ++n;
            t.addRow({Table::num(pes[p], 0), workloads[w],
                      Table::num(bw_zero, 0), Table::num(bw_one, 0),
                      Table::num(drop, 1)});
        }
        t.addRow({Table::num(pes[p], 0), "average", "", "",
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
