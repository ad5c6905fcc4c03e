/**
 * @file
 * Architect's scenario: exploring the ODEAR design space with the
 * library's lower-level APIs — calibrating the RP threshold against the
 * real QC-LDPC code, checking the rearrangement identity, sizing the
 * prediction datapath, and validating the RVS voltage selection on the
 * V_TH model. This is the path a flash vendor would walk before
 * committing the RP module to silicon.
 */

#include <iostream>

#include "core/rif.h"

int
main()
{
    using namespace rif;

    // --- 1. The code and its measured capability. ------------------
    const ldpc::QcLdpcCode code(ldpc::paperCode());
    const ldpc::MinSumDecoder decoder(code, 20);
    ldpc::CapabilitySweepConfig sweep;
    sweep.rbers = {0.006, 0.008, 0.0085, 0.009, 0.010};
    sweep.trials = 40;
    const auto pts = ldpc::measureCapability(code, decoder, sweep);
    const double cap = ldpc::estimateCapability(pts, 0.1);
    std::cout << "QC-LDPC r=4 c=36 t=1024: measured capability " << cap
              << " (paper 0.0085)\n";

    // --- 2. Calibrate rho_s and size the datapath. ------------------
    odear::RpConfig rp_cfg;
    rp_cfg.rhoS = odear::RpModule::calibrateThreshold(code, rp_cfg, cap,
                                                      40, 99);
    const odear::RpModule rp(code, rp_cfg);
    std::cout << "calibrated rho_s (pruned, 1024 syndromes): "
              << rp_cfg.rhoS << "\n";
    for (std::uint64_t chunk : {1024ull, 2048ull, 4096ull}) {
        std::cout << "  tPRED for a " << chunk / 1024
                  << "-KiB chunk: "
                  << ticksToUs(rp.predictionLatency(chunk)) << " us\n";
    }

    // --- 3. Verify the hardware-enabling identity. ------------------
    const odear::CodewordRearranger rearranger(code);
    Rng rng(5);
    BitVec word = code.encode(ldpc::randomData(code.params().k(), rng));
    ldpc::injectErrors(word, 0.007, rng);
    const BitVec flash = rearranger.toFlashLayout(word);
    std::cout << "rearranged on-die weight "
              << rearranger.onDieSyndromeWeight(flash)
              << " == pruned syndrome weight "
              << code.prunedSyndromeWeight(word)
              << " (XOR-of-segments datapath is exact)\n";

    // --- 4. RVS: does the in-die re-read land below capability? -----
    const nand::VthModel vth;
    const odear::RvsModule rvs(vth);
    for (double ret : {10.0, 20.0, 28.0}) {
        const auto sel =
            rvs.select(nand::PageType::Msb, 1500.0, ret, rng);
        std::cout << "RVS @ 1500 P/E, " << ret << " days: stale RBER "
                  << vth.pageRber(nand::PageType::Msb, 1500.0, ret)
                  << " -> re-read " << sel.predictedRber << " (optimal "
                  << sel.optimalRber << ")\n";
    }

    // --- 5. End-to-end: does the silicon budget pay off? ------------
    Experiment e;
    e.withPolicy(ssd::PolicyKind::Rif).withPeCycles(2000.0);
    RunScale scale;
    scale.requests = 4000;
    const auto r = e.run("Ali121", scale);
    const odear::OverheadModel overhead;
    std::cout << "\nRiFSSD on Ali121 @ 2K P/E: "
              << r.bandwidthMBps() << " MB/s, "
              << r.stats.avoidedTransfers
              << " avoided transfers\n"
              << "net RP energy: "
              << overhead.netEnergyNj(r.stats.rpPredictions,
                                      r.stats.avoidedTransfers) /
                     1000.0
              << " uJ (negative = saving), area overhead "
              << 100.0 * overhead.areaOverheadFraction() << "% of die\n";
    return 0;
}
