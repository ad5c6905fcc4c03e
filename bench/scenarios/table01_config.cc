/**
 * @file
 * Table I — the evaluated SSD configuration: geometry, latencies,
 * bandwidths and the ECC engine, as configured in this library's
 * defaults, alongside the scaled-down geometry the simulator actually
 * instantiates.
 */

#include "core/scenario.h"
#include "ssd/config.h"

namespace {

using namespace rif;
using namespace rif::ssd;

void
run(core::ScenarioContext &ctx)
{
    SsdConfig cfg;
    ctx.opts.applyTo(cfg);
    const nand::Geometry paper = SsdConfig::paperGeometry();
    const nand::Geometry sim = cfg.geometry;

    Table t("Table I: evaluated SSD configuration");
    t.setHeader({"parameter", "paper", "this simulator"});
    auto geo = [](const nand::Geometry &g) {
        return std::to_string(g.channels) + " ch x " +
               std::to_string(g.diesPerChannel) + " dies x " +
               std::to_string(g.planesPerDie) + " planes, " +
               std::to_string(g.blocksPerPlane) + " blk/plane, " +
               std::to_string(g.pagesPerBlock) + " pages/blk";
    };
    t.addRow({"organization", geo(paper), geo(sim)});
    t.addRow({"capacity",
              Table::num(static_cast<double>(paper.capacityBytes()) /
                             (1024.0 * kGiB),
                         2) + " TiB",
              Table::num(static_cast<double>(sim.capacityBytes()) /
                             static_cast<double>(kGiB),
                         0) + " GiB (scaled blocks/plane)"});
    t.addRow({"tR", "40 us", Table::num(ticksToUs(cfg.timing.tR), 1) +
                                 " us"});
    t.addRow({"tPROG", "400 us",
              Table::num(ticksToUs(cfg.timing.tProg), 0) + " us"});
    t.addRow({"tBERS", "3500 us",
              Table::num(ticksToUs(cfg.timing.tErase), 0) + " us"});
    t.addRow({"tDMA (16-KiB page)", "13 us",
              Table::num(ticksToUs(cfg.timing.tDmaPage), 0) + " us"});
    t.addRow({"tECC", "1 to 20 us",
              Table::num(ticksToUs(cfg.timing.tEccMin), 0) + " to " +
                  Table::num(ticksToUs(cfg.timing.tEccMax), 0) + " us"});
    t.addRow({"tPRED", "2.5 us",
              Table::num(ticksToUs(cfg.timing.tPred), 1) + " us"});
    t.addRow({"host bandwidth", "8.0 GB/s (PCIe 4.0 x4)",
              Table::num(cfg.hostGBps, 1) + " GB/s"});
    t.addRow({"channel bandwidth", "1.2 GB/s", "1.2 GB/s (13 us/page)"});
    t.addRow({"ECC engine", "4-KiB LDPC, capability 0.0085",
              "4-KiB QC-LDPC (r=4,c=36,t=1024), capability " +
                  Table::num(cfg.rber.capability, 4)});
    ctx.sink.table(t);

    ctx.sink.text(
        "\nThe simulator keeps Table I's organization and latencies but "
        "scales\nblocks/plane 1888 -> 128 so runs fit in memory; "
        "bandwidth behaviour is\nunaffected (parallelism and timing are "
        "identical).\n");
}

} // namespace

RIF_REGISTER_SCENARIO(table01_config,
                      "Evaluated SSD configuration",
                      "Table I",
                      run);
