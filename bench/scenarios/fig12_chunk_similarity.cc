/**
 * @file
 * Fig. 12 — intra-page RBER similarity between fixed-size chunks of the
 * same 16-KiB page, for 4/2/1-KiB chunks across P/E levels and
 * retention times. The paper observes max spreads of ~4.5% (4 KiB) up
 * to ~13.5% (1 KiB), justifying the 4-KiB chunk-based prediction.
 */

#include "core/scenario.h"
#include "nand/characterization.h"

namespace {

using namespace rif;
using namespace rif::nand;

void
run(core::ScenarioContext &ctx)
{
    const RberModel model;
    Rng rng(2024);
    const int pages = ctx.scaled(400);
    // Systematic per-chunk variation from process similarity is tight;
    // the remaining spread is binomial sampling noise.
    const double chunk_sigma = 0.01;

    const double pes[] = {0.0, 1000.0, 2000.0};
    const double rets[] = {0.5, 1.0, 3.0, 7.0, 14.0, 21.0, 28.0};
    const std::uint64_t chunks[] = {4096, 2048, 1024};

    for (std::uint64_t chunk : chunks) {
        Table t("Fig. 12: max spread (%), chunk = " +
                std::to_string(chunk / 1024) + " KiB, " +
                std::to_string(pages) + " pages/point");
        std::vector<std::string> head{"P/E"};
        for (double r : rets)
            head.push_back(std::string("d").append(Table::num(r, 0)));
        t.setHeader(head);
        for (double pe : pes) {
            std::vector<std::string> row{Table::num(pe, 0)};
            for (double ret : rets) {
                const double rber = model.rber(pe, ret);
                const auto sim = measureChunkSimilarity(
                    rber, 16384, chunk, pages, chunk_sigma, rng);
                row.push_back(Table::num(100.0 * sim.maxSpread, 1));
            }
            t.addRow(row);
        }
        ctx.sink.table(t);
        ctx.sink.text("\n");
    }

    ctx.sink.text(
        "Shape checks (as in Fig. 12): spreads shrink as retention/PE "
        "grow (more\nerrors -> relatively less sampling noise) and grow "
        "as the chunk shrinks;\n4-KiB chunks track the page RBER closely"
        " enough for prediction.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(fig12_chunk_similarity,
                      "Intra-page chunk RBER similarity",
                      "Fig. 12 (max (RBERmax-RBERmin)/RBERmax per chunk "
                      "size)",
                      run);
