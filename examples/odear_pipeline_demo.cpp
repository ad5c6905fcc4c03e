/**
 * @file
 * Bit-level walkthrough of the RiF data path on one flash wordline:
 * program (scramble -> LDPC encode -> rearrange), age the data, sense
 * it back with real error injection, watch the on-die RP catch the
 * uncorrectable page, let the RVS pick new read voltages, and verify
 * the host data returns bit-exact. Everything the timing simulator
 * abstracts, executed for real.
 *
 *   ./odear_pipeline_demo [pe_cycles] [retention_days]
 */

#include <iostream>
#include <string>

#include "core/rif.h"

int
main(int argc, char **argv)
{
    using namespace rif;
    using namespace rif::odear;

    const double pe = argc > 1 ? std::stod(argv[1]) : 1000.0;
    const double ret = argc > 2 ? std::stod(argv[2]) : 20.0;

    const ldpc::QcLdpcCode code(ldpc::paperCode());
    const nand::VthModel vth;

    RpConfig rp_cfg;
    rp_cfg.rhoS =
        RpModule::calibrateThreshold(code, rp_cfg, 0.0085, 30, 7);
    FunctionalPipeline pipeline(code, vth, rp_cfg);
    std::cout << "RP threshold rho_s (pruned, chunk-based): "
              << rp_cfg.rhoS << ", tPRED "
              << ticksToUs(pipeline.rp().predictionLatency()) << " us\n";

    // Program a page: four 4-KiB payloads of host data.
    Rng rng(99);
    std::vector<BitVec> payloads;
    for (int i = 0; i < 4; ++i)
        payloads.push_back(ldpc::randomData(code.params().k(), rng));
    const ProgrammedPage page =
        pipeline.program(payloads, 0x1234, nand::PageType::Msb);
    std::cout << "programmed 16-KiB page: 4 codewords of "
              << code.params().n() << " bits, scrambled and rearranged "
              << "into flash layout\n\n";

    // Read it back after aging.
    const auto res = pipeline.read(page, pe, ret, rng);
    std::cout << "read @ " << pe << " P/E, " << ret << " days:\n"
              << "  first-sense RBER       " << res.firstSenseRber
              << (res.firstSenseRber > 0.0085 ? "  (above capability!)"
                                              : "")
              << "\n  chunk syndrome weight  " << res.chunkSyndromeWeight
              << " (threshold " << rp_cfg.rhoS << ")\n"
              << "  RP verdict             "
              << (res.predictedUncorrectable ? "RETRY ON-DIE"
                                             : "send off-chip")
              << "\n";
    if (res.retriedOnDie) {
        std::cout << "  RVS re-read RBER       " << res.reReadRber
                  << "  (" << res.firstSenseRber / res.reReadRber
                  << "x fewer errors)\n";
    }
    std::cout << "  off-chip decode        "
              << (res.decodeSucceeded ? "success" : "FAILURE") << "\n";

    bool intact = res.decodeSucceeded;
    if (intact) {
        for (std::size_t i = 0; i < payloads.size(); ++i)
            intact = intact && res.payloads[i] == payloads[i];
    }
    std::cout << "  host data integrity    "
              << (intact ? "bit-exact" : "CORRUPTED") << "\n";
    return intact ? 0 : 1;
}
