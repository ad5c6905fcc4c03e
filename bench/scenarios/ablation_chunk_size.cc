/**
 * @file
 * Ablation (DESIGN.md §6.1) — chunk size of the RP prediction: a
 * smaller inspected chunk cuts tPRED but adds sampling noise, degrading
 * accuracy near the capability and (through mispredictions) RiFSSD
 * bandwidth. The paper picks 4 KiB (§V-A1).
 */

#include "core/artifact_cache.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "odear/rp_module.h"

namespace {

using namespace rif;
using namespace rif::ssd;

void
run(core::ScenarioContext &ctx)
{
    const std::string wl = ctx.workload("Ali124");

    const auto code = core::cachedCode(ldpc::paperCode());
    const odear::RpModule rp(*code, odear::RpConfig{});

    RunScale rs;
    rs.requests = ctx.scaled(5000);
    ctx.opts.applyTo(rs);

    Table t("Chunk size vs tPRED, miss rate and RiFSSD bandwidth "
            "(" + wl + " @ 2K P/E)");
    t.setHeader({"chunk", "tPRED(us)", "missed_pred", "false_retries",
                 "bandwidth(MB/s)"});
    const std::vector<std::uint64_t> chunks{4096, 2048, 1024};
    auto makeExperiment = [&](std::uint64_t chunk) {
        Experiment e;
        e.withPolicy(PolicyKind::Rif).withPeCycles(2000.0);
        // Observation noise scales with the bits the RP samples.
        e.config().rpObservedBits =
            static_cast<double>(chunk) * 8.0 * (1024.0 * 33.0) /
            (4096.0 * 8.0);
        e.config().timing.tPred = rp.predictionLatency(chunk);
        ctx.opts.applyTo(e.config());
        return e;
    };
    const auto results = parallelRuns(chunks.size(), [&](std::size_t i) {
        return makeExperiment(chunks[i]).run(wl, rs);
    });
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const auto &r = results[i];
        const Tick t_pred =
            makeExperiment(chunks[i]).config().timing.tPred;
        t.addRow({std::to_string(chunks[i] / 1024) + " KiB",
                  Table::num(ticksToUs(t_pred), 2),
                  Table::num(r.stats.missedPredictions),
                  Table::num(r.stats.falseInDieRetries),
                  Table::num(r.bandwidthMBps(), 0)});
    }
    ctx.sink.table(t);
    ctx.sink.text(
        "\nSmaller chunks halve tPRED but raise mispredictions; the "
        "bandwidth\nimpact is modest because RiF's false positives only "
        "cost in-die time —\nthe paper still picks 4 KiB to bound "
        "misprediction overhead.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(ablation_chunk_size,
                      "Ablation: RP chunk size",
                      "design choice behind Fig. 12 / §V-A1",
                      run);
