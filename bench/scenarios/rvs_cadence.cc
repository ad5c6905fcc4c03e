/**
 * @file
 * RVS cadence ablation (docs/NAND_MODEL.md §5) — how often must a
 * host-side tracker re-characterize a block's VREFs before its stale
 * reads start retrying? Sweeps the re-characterization cadence against
 * a population of data ages spread over the refresh window and prices
 * each point: mean staleness, tracked-VREF RBER, the fraction of reads
 * that still exceed the ECC capability, and the calibration bandwidth
 * the cadence costs. Honors `--set nand.cellType=` so the trade can be
 * read at TLC (mild) and QLC (brutal).
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/scenario.h"
#include "odear/rvs_cost.h"
#include "odear/rvs_module.h"

namespace {

using namespace rif;
using namespace rif::nand;

/** Host reads/day amortizing the characterization campaign (same
 *  operating point as qlc_retry; docs/NAND_MODEL.md §5). */
constexpr double kReadsPerDay = 10000.0;

void
run(core::ScenarioContext &ctx)
{
    ssd::SsdConfig cfg;
    cfg.peCycles = 1000.0;
    // QLC is where staleness bites within a day; `--set
    // nand.cellType=tlc` reads the same trade on the paper's device.
    cfg.cellType = CellType::Qlc;
    ctx.opts.applyTo(cfg);

    const VthModel model(cfg.cellType);
    const odear::RvsModule rvs(model);
    const int page_types = pageTypesOf(cfg.cellType);

    // Deterministic age population: a golden-ratio low-discrepancy
    // sequence over the refresh window — evenly spread like the steady
    // state of uniformly written data, but never commensurate with the
    // cadence grid (a stride of refresh/n would alias against cadences
    // that divide it and fake zero staleness).
    const int n_ages = ctx.scaled(64);
    std::vector<double> ages;
    for (int i = 0; i < n_ages; ++i) {
        const double u = i * 0.6180339887498949 + 0.5;
        ages.push_back((u - std::floor(u)) * cfg.refreshDays);
    }

    const double cadences[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0};

    Table t("Host RVS tracking vs cadence (" +
            std::string(cellTypeName(cfg.cellType)) + ", " +
            Table::num(cfg.peCycles, 0) + " P/E, ages over " +
            Table::num(cfg.refreshDays, 0) + "d refresh window)");
    t.setHeader({"cadence(d)", "stale_mean(d)", "rvs(x1e-3)",
                 "retry%", "char_rd/day", "amort_us/rd"});

    for (double cadence : cadences) {
        odear::RvsCostParams params = cfg.rvsCost;
        params.recharacterizeDays = cadence;
        const odear::RvsCostEngine engine(model, params);

        double stale = 0.0, rber = 0.0, us = 0.0, char_rd = 0.0;
        std::uint64_t retries = 0, reads = 0;
        for (double age : ages) {
            stale += engine.staleDays(age);
            for (int ty = 0; ty < page_types; ++ty) {
                const PageType type{ty};
                const double r = engine.rberAtTrackedVref(
                    type, cfg.peCycles, age);
                engine.recordTrackedRead(type, age);
                rber += r;
                retries += r > cfg.rber.capability ? 1 : 0;
                ++reads;
            }
        }
        for (int ty = 0; ty < page_types; ++ty) {
            char_rd += engine.characterizationReads(PageType(ty)) /
                       cadence;
            us += engine.amortizedUsPerRead(PageType(ty),
                                            kReadsPerDay);
        }
        t.addRow({Table::num(cadence, 2),
                  Table::num(stale / n_ages, 2),
                  Table::num(rber / reads * 1e3, 2),
                  Table::num(100.0 * retries / reads, 1),
                  Table::num(char_rd, 0),
                  Table::num(us / page_types, 2)});
    }
    ctx.sink.table(t);

    // The in-die alternative this prices against: RiF re-estimates on
    // every failed read, so it has no staleness axis at all.
    Rng rng(cfg.seed);
    double rif = 0.0;
    std::uint64_t rif_n = 0;
    for (double age : ages)
        for (int ty = 0; ty < page_types; ++ty) {
            rif += rvs.select(PageType(ty), cfg.peCycles, age, rng)
                       .predictedRber;
            ++rif_n;
        }
    ctx.sink.text(
        "\nTight cadences keep the tracked RBER near optimal but spend "
        "calibration\nreads (char_rd/day) and amortized latency; loose "
        "cadences go stale and\nretry. RiF's per-read in-die estimate "
        "averages " + Table::num(rif / rif_n * 1e3, 2) +
        "x1e-3 over the same\npopulation with zero characterization "
        "traffic — staleness is the axis\nthe ODEAR engine removes.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(rvs_cadence,
                      "Ablation: host VREF-tracking cadence vs "
                      "staleness cost",
                      "extension study (docs/NAND_MODEL.md §5)",
                      run);
