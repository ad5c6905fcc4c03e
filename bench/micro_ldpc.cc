/**
 * @file
 * Google-benchmark microbenchmarks of the LDPC substrate: encoding,
 * syndrome computation (full and pruned, i.e. the ODEAR datapath's
 * work), and min-sum decoding at easy/threshold/hopeless RBER. The
 * Reference* variants time the retained per-edge kernels so the
 * word-parallel speedup is measured in-tree, BM_MinSumCheckPass and
 * BM_MinSumVarPass time the two batched min-sum kernels one pass at a
 * time, and BM_ParallelDecode times the thread-pool Monte-Carlo
 * harness end to end.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "ldpc/batch.h"
#include "ldpc/channel.h"
#include "ldpc/code.h"
#include "ldpc/decoder.h"
#include "odear/rearrange.h"

namespace {

using namespace rif;
using namespace rif::ldpc;

const QcLdpcCode &
theCode()
{
    static const QcLdpcCode code(paperCode());
    return code;
}

void
BM_Encode(benchmark::State &state)
{
    const QcLdpcCode &code = theCode();
    Rng rng(1);
    const BitVec data = randomData(code.params().k(), rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.encode(data));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(code.params().k() / 8));
}
BENCHMARK(BM_Encode);

void
BM_ReferenceEncode(benchmark::State &state)
{
    // The retired per-edge encoder, kept for equivalence testing.
    const QcLdpcCode &code = theCode();
    Rng rng(1);
    const BitVec data = randomData(code.params().k(), rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.referenceEncode(data));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(code.params().k() / 8));
}
BENCHMARK(BM_ReferenceEncode);

void
BM_RandomData(benchmark::State &state)
{
    // Word-wise fill: one rng.next() stored per packed 64-bit word.
    const QcLdpcCode &code = theCode();
    Rng rng(7);
    BitVec d(code.params().k());
    for (auto _ : state) {
        randomDataInto(d, rng);
        benchmark::DoNotOptimize(d.words().data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(code.params().k() / 8));
}
BENCHMARK(BM_RandomData);

void
BM_InjectErrors(benchmark::State &state)
{
    // Fixed-weight injection; Arg = error count. The bitmap membership
    // test replaces a per-call unordered_set.
    const QcLdpcCode &code = theCode();
    Rng rng(8);
    BitVec word = code.encode(randomData(code.params().k(), rng));
    const auto count = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        injectExactErrors(word, count, rng);
        benchmark::DoNotOptimize(word.words().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(count));
}
BENCHMARK(BM_InjectErrors)->Arg(64)->Arg(256);

void
BM_FullSyndromeWeight(benchmark::State &state)
{
    const QcLdpcCode &code = theCode();
    Rng rng(2);
    BitVec word = code.encode(randomData(code.params().k(), rng));
    injectErrors(word, 0.005, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.syndromeWeight(word));
}
BENCHMARK(BM_FullSyndromeWeight);

void
BM_ReferenceSyndrome(benchmark::State &state)
{
    const QcLdpcCode &code = theCode();
    Rng rng(2);
    BitVec word = code.encode(randomData(code.params().k(), rng));
    injectErrors(word, 0.005, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.referenceSyndrome(word));
}
BENCHMARK(BM_ReferenceSyndrome);

void
BM_PrunedSyndromeWeight(benchmark::State &state)
{
    const QcLdpcCode &code = theCode();
    Rng rng(3);
    BitVec word = code.encode(randomData(code.params().k(), rng));
    injectErrors(word, 0.005, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.prunedSyndromeWeight(word));
}
BENCHMARK(BM_PrunedSyndromeWeight);

void
BM_OnDieSyndromeWeight(benchmark::State &state)
{
    // The rotated-layout XOR+popcount the RP hardware performs.
    const QcLdpcCode &code = theCode();
    const odear::CodewordRearranger rr(code);
    Rng rng(4);
    BitVec word = code.encode(randomData(code.params().k(), rng));
    injectErrors(word, 0.005, rng);
    const BitVec flash = rr.toFlashLayout(word);
    for (auto _ : state)
        benchmark::DoNotOptimize(rr.onDieSyndromeWeight(flash));
}
BENCHMARK(BM_OnDieSyndromeWeight);

void
BM_MinSumDecode(benchmark::State &state)
{
    const QcLdpcCode &code = theCode();
    const MinSumDecoder dec(code, 20);
    const double rber = static_cast<double>(state.range(0)) * 1e-4;
    Rng rng(5);
    BitVec word = code.encode(randomData(code.params().k(), rng));
    injectErrors(word, rber, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(dec.decode(word, rber));
}
// 0.002 (easy), 0.008 (near capability), 0.012 (fails at 20 iters).
BENCHMARK(BM_MinSumDecode)->Arg(20)->Arg(80)->Arg(120);

void
BM_MinSumDecodeWorkspace(benchmark::State &state)
{
    // Caller-owned workspace: zero heap allocation in steady state.
    const QcLdpcCode &code = theCode();
    const MinSumDecoder dec(code, 20);
    const double rber = static_cast<double>(state.range(0)) * 1e-4;
    Rng rng(5);
    BitVec word = code.encode(randomData(code.params().k(), rng));
    injectErrors(word, rber, rng);
    DecodeWorkspace ws;
    for (auto _ : state)
        benchmark::DoNotOptimize(dec.decode(word, rber, ws));
}
BENCHMARK(BM_MinSumDecodeWorkspace)->Arg(20)->Arg(80);

void
BM_SyndromeBatch(benchmark::State &state)
{
    // Batched full syndrome weight; Arg = lanes. Per-item time against
    // BM_FullSyndromeWeight is the SoA datapath's speedup per word.
    const QcLdpcCode &code = theCode();
    const auto lanes = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    CodewordBatch batch(code.params().n(), lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        BitVec word = code.encode(randomData(code.params().k(), rng));
        injectErrors(word, 0.005, rng);
        batch.setLane(l, word);
    }
    CodewordBatch synd;
    std::vector<std::size_t> weights(lanes);
    for (auto _ : state) {
        syndromeWeightBatch(code, batch, synd, weights.data());
        benchmark::DoNotOptimize(weights.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_SyndromeBatch)->Arg(1)->Arg(8)->Arg(64);

void
BM_PrunedSyndromeBatch(benchmark::State &state)
{
    // Batched pruned (block row 0) weight — the RP datapath per lane.
    const QcLdpcCode &code = theCode();
    const auto lanes = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    CodewordBatch batch(code.params().n(), lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        BitVec word = code.encode(randomData(code.params().k(), rng));
        injectErrors(word, 0.005, rng);
        batch.setLane(l, word);
    }
    CodewordBatch synd;
    std::vector<std::size_t> weights(lanes);
    for (auto _ : state) {
        prunedSyndromeWeightBatch(code, batch, synd, weights.data());
        benchmark::DoNotOptimize(weights.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_PrunedSyndromeBatch)->Arg(1)->Arg(8)->Arg(64);

void
BM_DecodeBatch(benchmark::State &state)
{
    // Batched min-sum over `lanes` distinct words; Args = {lanes, RBER
    // in 1e-4}. Per-item time against BM_MinSumDecodeWorkspace at the
    // same RBER (60 = 0.006) is the lockstep datapath's per-word
    // speedup; at 160 = 0.016 every lane hits the 20-iteration cap, so
    // ns_per_lane_iteration is the kernels' own cost without the
    // early-exit mix.
    const QcLdpcCode &code = theCode();
    const MinSumDecoder dec(code, 20);
    const auto lanes = static_cast<std::size_t>(state.range(0));
    const double rber = static_cast<double>(state.range(1)) * 1e-4;
    Rng rng(5);
    std::vector<BitVec> words(lanes);
    std::vector<const BitVec *> ptrs(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        words[l] = code.encode(randomData(code.params().k(), rng));
        injectErrors(words[l], rber, rng);
        ptrs[l] = &words[l];
    }
    BatchDecodeWorkspace ws;
    std::vector<DecodeResult> results(lanes);
    // ns_per_lane_iteration: decode time over the iterations the lanes
    // ran, summed (the rifbench ldpc.ns_per_iteration definition). At
    // the cap every lane runs the full schedule, so 8x this is the cost
    // of one 8-lane iteration of the batched kernels.
    double decode_ns = 0.0;
    double lane_iterations = 0.0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        dec.decodeBatch(ptrs.data(), lanes, rber, ws, results.data());
        benchmark::DoNotOptimize(results.data());
        decode_ns += std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        for (const DecodeResult &r : results)
            lane_iterations += r.iterations;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(lanes));
    state.counters["ns_per_lane_iteration"] =
        decode_ns / lane_iterations;
}
BENCHMARK(BM_DecodeBatch)
    ->Args({1, 60})
    ->Args({8, 60})
    ->Args({64, 60})
    ->Args({8, 160})
    ->Unit(benchmark::kMillisecond);

/**
 * The batched min-sum state of the paper code after its first real
 * iteration: 8 words at RBER 0.016 (the BM_DecodeBatch/8/160 words),
 * one check pass from the zero state and one variable pass. The
 * per-pass benchmarks time their kernel on it.
 */
struct PassState
{
    std::vector<std::uint8_t> chanSign;
    float llr = 0.0f;
    std::vector<float> total;
    std::vector<simd::MinSumCheck8> checks;
    std::vector<std::uint8_t> edgeSign;
    CodewordBatch hard;
};

PassState
firstIterationState()
{
    const QcLdpcCode &code = theCode();
    const auto &ev = code.checkAdjacency();
    const auto &cs = code.checkOffsets();
    const std::size_t n = code.params().n();
    const std::size_t m = code.params().m();
    constexpr std::size_t L = MinSumDecoder::kBatchLanes;
    const double rber = 0.016;
    Rng rng(5);
    PassState s;
    s.chanSign.assign(n, 0);
    for (std::size_t l = 0; l < L; ++l) {
        BitVec word = code.encode(randomData(code.params().k(), rng));
        injectErrors(word, rber, rng);
        for (std::size_t v = 0; v < n; ++v)
            s.chanSign[v] |= static_cast<std::uint8_t>(
                static_cast<unsigned>(word.get(v)) << l);
    }
    DecodeWorkspace ws;
    s.llr = ws.llrMagnitude(rber);
    s.total.resize(n * L);
    s.checks.assign(m, simd::MinSumCheck8{});
    s.edgeSign.assign(ev.size(), 0);
    s.hard.reset(n, L);
    // On the zero state every c2v is +-0, so this first variable pass
    // sets each posterior to its channel LLR.
    simd::minsumVarPass8(s.chanSign.data(), s.llr, n, cs.data(), m,
                         ev.data(), s.checks.data(), s.edgeSign.data(),
                         s.total.data(), s.hard.words());
    simd::minsumCheckPass8(cs.data(), m, ev.data(), s.total.data(),
                           s.checks.data(), s.edgeSign.data(), 0.8f);
    simd::minsumVarPass8(s.chanSign.data(), s.llr, n, cs.data(), m,
                         ev.data(), s.checks.data(), s.edgeSign.data(),
                         s.total.data(), s.hard.words());
    return s;
}

void
BM_MinSumCheckPass(benchmark::State &state)
{
    // One 8-lane check-node pass over every edge of the paper code.
    // ns_per_edge is wall time over passes x edges. Each pass folds the
    // fixed posteriors into the state the previous pass left; the
    // kernel has no data-dependent branch, so its cost is the same
    // every pass.
    const QcLdpcCode &code = theCode();
    const auto &ev = code.checkAdjacency();
    const auto &cs = code.checkOffsets();
    const std::size_t m = code.params().m();
    PassState s = firstIterationState();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        simd::minsumCheckPass8(cs.data(), m, ev.data(), s.total.data(),
                               s.checks.data(), s.edgeSign.data(), 0.8f);
        benchmark::DoNotOptimize(s.checks.data());
        benchmark::ClobberMemory();
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    state.counters["ns_per_edge"] =
        ns / (static_cast<double>(state.iterations()) *
              static_cast<double>(ev.size()));
}
BENCHMARK(BM_MinSumCheckPass)->Unit(benchmark::kMicrosecond);

void
BM_MinSumVarPass(benchmark::State &state)
{
    // One 8-lane variable-node pass (posterior sums and the packed hard
    // decisions) on the first iteration's check state; ns_per_edge as
    // in BM_MinSumCheckPass. Every pass recomputes the same totals.
    const QcLdpcCode &code = theCode();
    const auto &ev = code.checkAdjacency();
    const auto &cs = code.checkOffsets();
    const std::size_t n = code.params().n();
    const std::size_t m = code.params().m();
    PassState s = firstIterationState();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        simd::minsumVarPass8(s.chanSign.data(), s.llr, n, cs.data(), m,
                             ev.data(), s.checks.data(), s.edgeSign.data(),
                             s.total.data(), s.hard.words());
        benchmark::DoNotOptimize(s.total.data());
        benchmark::ClobberMemory();
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    state.counters["ns_per_edge"] =
        ns / (static_cast<double>(state.iterations()) *
              static_cast<double>(ev.size()));
}
BENCHMARK(BM_MinSumVarPass)->Unit(benchmark::kMicrosecond);

void
BM_MinSumDecodeLoop(benchmark::State &state)
{
    // The scalar counterpart of BM_DecodeBatch: the same words decoded
    // one by one through a caller-owned workspace.
    const QcLdpcCode &code = theCode();
    const MinSumDecoder dec(code, 20);
    const auto lanes = static_cast<std::size_t>(state.range(0));
    const double rber = 0.006;
    Rng rng(5);
    std::vector<BitVec> words(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        words[l] = code.encode(randomData(code.params().k(), rng));
        injectErrors(words[l], rber, rng);
    }
    DecodeWorkspace ws;
    std::vector<DecodeResult> results(lanes);
    for (auto _ : state) {
        for (std::size_t l = 0; l < lanes; ++l)
            results[l] = dec.decode(words[l], rber, ws);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_MinSumDecodeLoop)->Arg(8)->Unit(benchmark::kMillisecond);

void
BM_ParallelDecode(benchmark::State &state)
{
    // End-to-end Monte-Carlo throughput of the thread-pool harness:
    // 32 independent decodes per iteration, deterministic per-index
    // streams, per-worker workspaces. Arg = thread count.
    const QcLdpcCode &code = theCode();
    const MinSumDecoder dec(code, 20);
    const double rber = 0.006;
    setGlobalThreadCount(static_cast<int>(state.range(0)));

    constexpr std::size_t kBatch = 32;
    Rng master(6);
    std::vector<BitVec> words(kBatch);
    for (auto &w : words) {
        w = code.encode(randomData(code.params().k(), master));
        injectErrors(w, rber, master);
    }
    std::vector<DecodeWorkspace> scratch(globalThreadCount());
    std::vector<int> iters(kBatch, 0);
    for (auto _ : state) {
        parallelForWorker(kBatch, [&](std::size_t i, int worker) {
            iters[i] = dec.decode(words[i], rber, scratch[worker]).iterations;
        });
        benchmark::DoNotOptimize(iters.data());
    }
    setGlobalThreadCount(0);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_ParallelDecode)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
