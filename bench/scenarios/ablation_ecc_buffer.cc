/**
 * @file
 * Ablation (DESIGN.md §6.5) — ECC input-buffer depth: the paper's third
 * root cause (§III-B3) is the channel stalling behind long failed
 * decodes because the decoder's buffer fills. Deeper buffering hides
 * ECCWAIT for the off-chip policies but cannot recover the UNCOR
 * transfer waste — only RiF removes both.
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

    Table t("SSDone and RiFSSD vs ECC buffer depth (" + wl +
            " @ 2K P/E)");
    t.setHeader({"policy", "buffer(pages)", "bandwidth(MB/s)", "ECCWAIT",
                 "UNCOR"});
    struct Point
    {
        PolicyKind policy;
        int depth;
    };
    std::vector<Point> points;
    for (PolicyKind p : {PolicyKind::IdealOffChip, PolicyKind::Rif})
        for (int depth : {1, 2, 4, 8})
            points.push_back({p, depth});

    const auto results = parallelRuns(points.size(), [&](std::size_t i) {
        Experiment e;
        e.withPolicy(points[i].policy).withPeCycles(2000.0);
        e.config().eccBufferPages = points[i].depth;
        ctx.opts.applyTo(e.config());
        return e.run(wl, rs);
    });

    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &r = results[i];
        t.addRow({policyName(points[i].policy),
                  Table::num(std::uint64_t(points[i].depth)),
                  Table::num(r.bandwidthMBps(), 0),
                  Table::num(
                      r.stats.channelFraction(ChannelState::EccWait), 2),
                  Table::num(
                      r.stats.channelFraction(ChannelState::UncorXfer),
                      2)});
    }
    ctx.sink.table(t);
    ctx.sink.text(
        "\nDeeper decoder buffers shave SSDone's ECCWAIT but leave the "
        "uncorrectable\ntransfer waste, so SSDone never reaches RiF — "
        "buffering alone cannot fix\nthe off-chip retry architecture.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(ablation_ecc_buffer,
                      "Ablation: channel-level ECC buffer depth",
                      "root cause three of §III-B3 / Fig. 18's ECCWAIT",
                      run);
