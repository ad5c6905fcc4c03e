/**
 * @file
 * QLC retry study (docs/NAND_MODEL.md §4-5) — RiF vs. host-side RVS
 * tracking vs. the conventional fixed VREF sequence, swept over
 * retention age at TLC and QLC. The denser 16-state V_TH window makes
 * QLC cross the ECC capability within days instead of weeks, so the
 * three recovery schemes separate much earlier than on the paper's TLC
 * device: the conventional sequence burns retry rounds, the host
 * tracker reads at VREFs frozen at its last characterization, and
 * RiF's in-die Swift-Read estimate stays near-optimal at every age.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/scenario.h"
#include "nand/vref_table.h"
#include "odear/rvs_cost.h"
#include "odear/rvs_module.h"

namespace {

using namespace rif;
using namespace rif::nand;

/** Host reads/day a tracked block region serves; amortizes the
 *  characterization campaign (docs/NAND_MODEL.md §5). */
constexpr double kReadsPerDay = 10000.0;

void
run(core::ScenarioContext &ctx)
{
    ssd::SsdConfig cfg;
    cfg.peCycles = 1000.0;
    ctx.opts.applyTo(cfg);

    const double ages[] = {0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
    const int trials = ctx.scaled(200);

    Table t("RiF vs host RVS vs CONV across retention age (" +
            Table::num(cfg.peCycles, 0) + " P/E, capability " +
            Table::num(cfg.rber.capability * 1e3, 1) + "x1e-3)");
    t.setHeader({"cell", "ret(d)", "default(x1e-3)", "conv_NRR",
                 "rvs(x1e-3)", "rvs_stale(d)", "rvs_us/rd",
                 "rif(x1e-3)"});

    // The two cells are independent: each builds its own models and
    // cost engine (tracked-read state never crosses cells) and fills
    // its own rows, which join the table in cell order.
    const CellType cells[] = {CellType::Tlc, CellType::Qlc};
    std::vector<std::vector<std::string>> rows[2];
    parallelFor(2, [&](std::size_t c) {
        const CellType cell = cells[c];
        const VthModel model(cell);
        const odear::RvsModule rvs(model);
        const odear::RvsCostEngine cost(model, cfg.rvsCost);
        const int page_types = pageTypesOf(cell);

        // One manufacturer retry table per page type, profiled at the
        // sweep's wear point like a vendor would.
        std::vector<VrefSequence> seqs;
        for (int ty = 0; ty < page_types; ++ty)
            seqs.emplace_back(model, PageType(ty), cfg.peCycles,
                              cfg.maxRetrySteps, cfg.refreshDays);

        for (double age : ages) {
            double dflt = 0.0, nrr = 0.0, rvs_rber = 0.0,
                   rvs_us = 0.0, rif_rber = 0.0;
            for (int ty = 0; ty < page_types; ++ty) {
                const PageType type{ty};
                dflt += model.pageRber(type, cfg.peCycles, age);
                nrr += seqs[ty].roundsUntilDecodable(
                    cfg.peCycles, age, cfg.rber.capability);
                rvs_rber +=
                    cost.rberAtTrackedVref(type, cfg.peCycles, age);
                cost.recordTrackedRead(type, age);
                rvs_us += cost.amortizedUsPerRead(type, kReadsPerDay);
                // The in-die estimate is noisy (finite ones counter);
                // average a few draws from a per-point generator so
                // the row is independent of evaluation order.
                Rng rng(cfg.seed ^ (std::uint64_t(cell) << 48) ^
                        (std::uint64_t(ty) << 32) ^
                        std::uint64_t(age * 16.0));
                double acc = 0.0;
                for (int i = 0; i < trials; ++i) {
                    const auto sel =
                        rvs.select(type, cfg.peCycles, age, rng);
                    acc += sel.predictedRber;
                }
                rif_rber += acc / trials;
            }
            const double n = page_types;
            rows[c].push_back({cellTypeName(cell), Table::num(age, 1),
                               Table::num(dflt / n * 1e3, 2),
                               Table::num(nrr / n, 1),
                               Table::num(rvs_rber / n * 1e3, 2),
                               Table::num(cost.staleDays(age), 2),
                               Table::num(rvs_us / n, 2),
                               Table::num(rif_rber / n * 1e3, 2)});
        }
    });
    for (const auto &cell_rows : rows)
        for (const auto &row : cell_rows)
            t.addRow(row);
    ctx.sink.table(t);

    ctx.sink.text(
        "\nQLC's 16-state window crosses the capability within days, "
        "where TLC has\nweeks of margin. The conventional sequence "
        "(conv_NRR) pays whole retry\nrounds for what RiF recovers in "
        "one in-die re-read; the host tracker\nmatches RiF right after "
        "a characterization but drifts with staleness\n(rvs_stale) and "
        "pays an amortized calibration tax per read (rvs_us/rd,\nat " +
        Table::num(kReadsPerDay, 0) + " reads/day).\n");
}

} // namespace

RIF_REGISTER_SCENARIO(qlc_retry,
                      "QLC vs TLC: RiF / host-RVS / CONV across "
                      "retention age",
                      "extension study (docs/NAND_MODEL.md §4-5)",
                      run);
