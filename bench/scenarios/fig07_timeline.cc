/**
 * @file
 * Figs. 7 and 8(c) — execution timeline of one 256-KiB sequential host
 * read on a single flash channel shared by two 4-plane dies, where the
 * first two 64-KiB multi-plane commands (A, B) require read-retries and
 * the last two (C, D) do not. The paper's timelines complete in 252 us
 * (SSDzero), 418 us (SSDone) and 292 us (RiF).
 *
 * The 16 pages stripe die-first, so LPNs 0..7 land on dies 0/1 page
 * offsets that form commands A and B; marking the *second* half of the
 * logical space cold and reading it first reproduces "A and B retry,
 * C and D do not" with deterministic cold ages.
 */

#include "common/metrics.h"
#include "core/scenario.h"
#include "ssd/ssd.h"
#include "trace/trace.h"

namespace {

using namespace rif;
using namespace rif::ssd;

SsdConfig
timelineConfig(PolicyKind p)
{
    SsdConfig cfg;
    cfg.geometry.channels = 1;
    cfg.geometry.diesPerChannel = 2;
    cfg.geometry.planesPerDie = 4;
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 64;
    cfg.policy = p;
    cfg.queueDepth = 1;
    // 1.5K P/E: hot pages stay clearly decodable while 20-day-old cold
    // pages always retry — the deterministic A/B-retry setting.
    cfg.peCycles = 1500.0;
    // Deterministic retries: cold data is old enough that its RBER is
    // far above the capability, and misprediction noise cannot flip
    // the outcome.
    cfg.coldAgeMinDays = 20.0;
    cfg.hotAgeDays = 0.01;
    return cfg;
}

Tick
runTimeline(const core::ScenarioContext &ctx, PolicyKind p, bool retries)
{
    SsdConfig cfg = timelineConfig(p);
    // One 256-KiB read = 16 pages. With die-first striping, LPNs
    // 0..7 hit both dies' first page offsets (commands A, B) and LPNs
    // 8..15 the next offsets (C, D). Reading the cold half first makes
    // A and B the retried commands.
    // The 256-KiB read is issued as two simultaneous 128-KiB halves
    // (queue depth 2): the cold half (LPNs 16..23, commands A and B —
    // one 64-KiB multi-plane command per die) and the hot half (LPNs
    // 8..15, commands C and D). The cold boundary at 16 makes exactly
    // A and B retry, as in the paper's timeline.
    std::vector<trace::IoRecord> recs;
    recs.push_back({true, 16, 8});
    recs.push_back({true, 8, 8});
    trace::VectorTrace tr(recs, 24, retries ? 16 : 24);
    cfg.queueDepth = 2;
    ctx.opts.applyTo(cfg);
    // The makespan is read back from the metric registry
    // (ssd.makespan_ticks) published by the drive at end of run.
    metrics::MetricsScope scope;
    Ssd drive(cfg);
    drive.run(tr);
    return scope.finish().value("ssd.makespan_ticks");
}

void
run(core::ScenarioContext &ctx)
{
    // The timeline is fixed-size; the scale factor is ignored.
    Table t("Figs. 7/8(c): total completion time of a 256-KiB read, "
            "A and B retried");
    t.setHeader({"config", "measured(us)", "paper(us)"});

    const Tick zero = runTimeline(ctx, PolicyKind::Zero, false);
    t.addRow({"SSDzero (no retries)", Table::num(ticksToUs(zero), 0),
              "252"});

    const Tick one = runTimeline(ctx, PolicyKind::IdealOffChip, true);
    t.addRow({"SSDone (off-chip retry)", Table::num(ticksToUs(one), 0),
              "418"});

    const Tick rif = runTimeline(ctx, PolicyKind::Rif, true);
    t.addRow({"RiF (on-die retry)", Table::num(ticksToUs(rif), 0),
              "292"});

    ctx.sink.table(t);
    ctx.sink.text(
        "\nShape checks: SSDone pays a large penalty over SSDzero "
        "(paper +166 us);\nRiF recovers most of it (paper +40 us) because"
        " failed pages are neither\ntransferred nor decoded off-chip. "
        "Absolute values differ: the paper\ntransfers 64-KiB units "
        "(tDMA 53 us) while we pipeline 16-KiB pages, and\nthe retried "
        "sense here is a full Swift-Read (2 x tR).\n");
}

} // namespace

RIF_REGISTER_SCENARIO(fig07_timeline,
                      "256-KiB read execution timeline",
                      "Fig. 7 (SSDzero 252 us, SSDone 418 us) and "
                      "Fig. 8(c) (RiF 292 us)",
                      run);
