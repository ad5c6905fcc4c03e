/**
 * @file
 * Tests of the workload substrate: the Table II specs, the synthetic
 * generator's realized read/cold-read ratios, address-bound invariants,
 * the streaming trace readers (CSV / MSR-Cambridge / Alibaba dialects,
 * with line-numbered validation), the in-memory source, the Poisson
 * arrival process and the WorkloadConfig front door.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "trace/arrival.h"
#include "trace/stream.h"
#include "trace/trace.h"
#include "trace/workload.h"

#ifndef RIF_TRACE_DIR
#error "RIF_TRACE_DIR must point at tests/traces"
#endif

namespace rif {
namespace trace {
namespace {

std::string
traceDir(const std::string &name)
{
    return std::string(RIF_TRACE_DIR) + "/" + name;
}

/** Write a throwaway trace file and clean it up on scope exit. */
class TempTrace
{
  public:
    TempTrace(const std::string &name, const std::string &content)
        : path_(name)
    {
        std::ofstream out(path_, std::ios::trunc);
        out << content;
    }
    ~TempTrace() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

CacheKey
digestOf(const TraceSource &s)
{
    Hasher h;
    EXPECT_TRUE(s.preconditionDigest(h));
    return h.finish();
}

TEST(Workloads, TableTwoSpecs)
{
    const auto all = paperWorkloads();
    ASSERT_EQ(all.size(), 8u);
    const WorkloadSpec ali124 = workloadByName("Ali124");
    EXPECT_DOUBLE_EQ(ali124.readRatio, 0.96);
    EXPECT_DOUBLE_EQ(ali124.coldReadRatio, 0.79);
    const WorkloadSpec ali2 = workloadByName("Ali2");
    EXPECT_DOUBLE_EQ(ali2.readRatio, 0.27);
    EXPECT_DOUBLE_EQ(ali2.coldReadRatio, 0.50);
    EXPECT_DEATH(workloadByName("nope"), "unknown workload");
}

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, RealizedRatiosMatchSpec)
{
    const WorkloadSpec spec = workloadByName(GetParam());
    SyntheticWorkload gen(spec, 30000, 42);
    const std::uint64_t cold_start = gen.coldRegionStart();
    const auto c = characterize(gen, cold_start);
    EXPECT_EQ(c.requests, 30000u);
    EXPECT_NEAR(c.readRatio(), spec.readRatio, 0.02);
    EXPECT_NEAR(c.coldReadRatio(), spec.coldReadRatio, 0.02);
}

TEST_P(EveryWorkload, RequestsStayInsideFootprint)
{
    const WorkloadSpec spec = workloadByName(GetParam());
    SyntheticWorkload gen(spec, 5000, 7);
    IoRecord rec;
    while (gen.next(rec)) {
        EXPECT_GE(rec.pages, 1u);
        EXPECT_LE(rec.pages, spec.maxPages);
        EXPECT_LE(rec.lpn + rec.pages, spec.footprintPages);
        if (!rec.isRead) {
            // Writes never touch the cold region (its coldness is the
            // definition of the cold-read ratio).
            EXPECT_LT(rec.lpn + rec.pages, gen.coldRegionStart() + 1);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, EveryWorkload,
                         ::testing::Values("Ali2", "Ali46", "Ali81",
                                           "Ali121", "Ali124", "Ali295",
                                           "Sys0", "Sys1"));

TEST(SyntheticWorkload, DeterministicForSeed)
{
    const WorkloadSpec spec = workloadByName("Sys0");
    SyntheticWorkload a(spec, 1000, 5), b(spec, 1000, 5);
    IoRecord ra, rb;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        EXPECT_EQ(ra.isRead, rb.isRead);
        EXPECT_EQ(ra.lpn, rb.lpn);
        EXPECT_EQ(ra.pages, rb.pages);
    }
    EXPECT_FALSE(b.next(rb));
}

TEST(SyntheticWorkload, HotReadsAreSkewed)
{
    WorkloadSpec spec = workloadByName("Ali2");
    spec.coldReadRatio = 0.0; // all reads hot
    SyntheticWorkload gen(spec, 50000, 11);
    IoRecord rec;
    std::uint64_t top_decile = 0, reads = 0;
    const std::uint64_t hot = gen.coldRegionStart();
    while (gen.next(rec)) {
        if (!rec.isRead)
            continue;
        ++reads;
        top_decile += (rec.lpn < hot / 10);
    }
    // Zipf(0.9): the first decile of the hot space absorbs most hits.
    EXPECT_GT(static_cast<double>(top_decile) / reads, 0.5);
}

TEST(StreamTrace, ParsesAndReplays)
{
    const char *path = "rif_test_trace.csv";
    {
        std::ofstream out(path);
        out << "# comment line\n";
        out << "R,100,4\n";
        out << "W,200,1\n";
        out << "r,0,16\n";
    }
    StreamTrace st(path);
    EXPECT_EQ(st.footprintPages(), 201u);
    IoRecord rec;
    ASSERT_TRUE(st.next(rec));
    EXPECT_TRUE(rec.isRead);
    EXPECT_EQ(rec.lpn, 100u);
    EXPECT_EQ(rec.pages, 4u);
    ASSERT_TRUE(st.next(rec));
    EXPECT_FALSE(rec.isRead);
    ASSERT_TRUE(st.next(rec));
    EXPECT_EQ(rec.pages, 16u);
    EXPECT_FALSE(st.next(rec));
    std::remove(path);
}

// A trace file opened with an explicit format (no dialect sniffing) must
// still fail loudly when the path does not exist.
TEST(FileTrace, RejectsMissingFile)
{
    EXPECT_DEATH(StreamTrace("/nonexistent/trace.csv", TraceFormat::Csv),
                 "cannot open");
}

TEST(VectorTrace, ReplaysInOrder)
{
    VectorTrace vt({{true, 0, 2}, {false, 4, 1}}, 100, 50);
    EXPECT_EQ(vt.footprintPages(), 100u);
    EXPECT_EQ(vt.coldRegionStart(), 50u);
    IoRecord rec;
    ASSERT_TRUE(vt.next(rec));
    EXPECT_TRUE(rec.isRead);
    ASSERT_TRUE(vt.next(rec));
    EXPECT_FALSE(rec.isRead);
    EXPECT_FALSE(vt.next(rec));
}

TEST(OffsetTrace, ShiftsRequestsAndColdness)
{
    VectorTrace inner({{true, 0, 2}, {false, 4, 1}}, 100, 50);
    OffsetTrace shifted(inner, 1000);
    EXPECT_EQ(shifted.footprintPages(), 1100u);
    EXPECT_EQ(shifted.coldRegionStart(), 1050u);
    IoRecord rec;
    ASSERT_TRUE(shifted.next(rec));
    EXPECT_EQ(rec.lpn, 1000u);
    ASSERT_TRUE(shifted.next(rec));
    EXPECT_EQ(rec.lpn, 1004u);
    // Coldness only answers inside the partition.
    EXPECT_FALSE(shifted.isCold(10));    // below the partition
    EXPECT_FALSE(shifted.isCold(1010));  // hot half of the partition
    EXPECT_TRUE(shifted.isCold(1060));   // cold half
    EXPECT_FALSE(shifted.isCold(1100));  // beyond the partition
}

TEST(Characteristics, EmptyIsSafe)
{
    TraceCharacteristics c;
    EXPECT_EQ(c.readRatio(), 0.0);
    EXPECT_EQ(c.coldReadRatio(), 0.0);
}

// ---------------------------------------------------------------------
// Streaming readers: dialects, timestamps, validation.
// ---------------------------------------------------------------------

TEST(StreamTrace, CsvArrivalColumnRebasesAndNeverRegresses)
{
    TempTrace t("rif_test_arrivals.csv",
                "R,10,1,5.0\n"
                "R,20,1,7.5\n"
                "R,30,1,7.0\n"); // out-of-order tail
    StreamTrace st(t.path());
    EXPECT_EQ(st.format(), TraceFormat::Csv);
    IoRecord rec;
    ASSERT_TRUE(st.next(rec));
    EXPECT_EQ(rec.arrival, 0u); // rebased against the first record
    ASSERT_TRUE(st.next(rec));
    EXPECT_EQ(rec.arrival, usToTicks(2.5));
    ASSERT_TRUE(st.next(rec));
    // The regressing timestamp is clamped, not reordered.
    EXPECT_EQ(rec.arrival, usToTicks(2.5));
    EXPECT_FALSE(st.next(rec));
}

TEST(StreamTrace, ParsesMsrDialect)
{
    StreamTrace st(traceDir("sample_msr.csv"));
    EXPECT_EQ(st.format(), TraceFormat::Msr);
    EXPECT_EQ(st.scan().records, 6u);
    EXPECT_EQ(st.scan().readRecords, 4u);
    // Max touched page: offset 5242880 -> lpn 320, one 16-KiB page.
    EXPECT_EQ(st.footprintPages(), 321u);
    // Highest write end: 1048576+32768 bytes -> page 66.
    EXPECT_EQ(st.coldRegionStart(), 66u);
    // Six records, 1 ms apart in 100-ns filetime units.
    EXPECT_EQ(st.scan().span, usToTicks(5000.0));

    IoRecord rec;
    ASSERT_TRUE(st.next(rec));
    EXPECT_TRUE(rec.isRead);
    EXPECT_EQ(rec.lpn, 20u);
    EXPECT_EQ(rec.pages, 1u);
    EXPECT_EQ(rec.arrival, 0u);
    ASSERT_TRUE(st.next(rec));
    EXPECT_FALSE(rec.isRead);
    EXPECT_EQ(rec.lpn, 64u);
    EXPECT_EQ(rec.pages, 2u);
    EXPECT_EQ(rec.arrival, usToTicks(1000.0));
}

TEST(StreamTrace, ParsesAlibabaDialect)
{
    StreamTrace st(traceDir("sample_alibaba.csv"));
    EXPECT_EQ(st.format(), TraceFormat::Alibaba);
    EXPECT_EQ(st.scan().records, 6u);
    EXPECT_EQ(st.scan().readRecords, 4u);
    EXPECT_EQ(st.footprintPages(), 321u);
    EXPECT_EQ(st.coldRegionStart(), 66u);
    EXPECT_EQ(st.scan().span, usToTicks(3100.0));

    IoRecord rec;
    ASSERT_TRUE(st.next(rec));
    EXPECT_TRUE(rec.isRead);
    EXPECT_EQ(rec.lpn, 20u);
    ASSERT_TRUE(st.next(rec));
    EXPECT_FALSE(rec.isRead);
    EXPECT_EQ(rec.arrival, usToTicks(500.0));
}

TEST(StreamTrace, UnalignedByteExtentsRoundOutward)
{
    // 16000 bytes at offset 16000: spans pages 0 and 1.
    TempTrace t("rif_test_unaligned.csv",
                "0,R,16000,16000,10\n");
    StreamTrace st(t.path());
    EXPECT_EQ(st.format(), TraceFormat::Alibaba);
    IoRecord rec;
    ASSERT_TRUE(st.next(rec));
    EXPECT_EQ(rec.lpn, 0u);
    EXPECT_EQ(rec.pages, 2u);
}

TEST(StreamTrace, DigestIgnoresPacingButNotContent)
{
    TempTrace a("rif_test_digest_a.csv", "R,10,1,5.0\nW,20,2,9.0\n");
    TempTrace b("rif_test_digest_b.csv", "R,10,1,50.0\nW,20,2,900.0\n");
    TempTrace c("rif_test_digest_c.csv", "R,10,1,5.0\nW,21,2,9.0\n");
    const StreamTrace sa(a.path()), sb(b.path()), sc(c.path());
    // Same records, different timestamps: one snapshot-cache entry.
    EXPECT_EQ(digestOf(sa).lo, digestOf(sb).lo);
    EXPECT_EQ(digestOf(sa).hi, digestOf(sb).hi);
    // Different records: different entry.
    EXPECT_NE(digestOf(sa).lo, digestOf(sc).lo);
}

TEST(StreamTraceDeathTest, MalformedLinesAreFatalWithLineNumber)
{
    TempTrace op("rif_bad_op.csv", "R,10,1\nX,20,1\n");
    EXPECT_DEATH(StreamTrace(op.path()),
                 "rif_bad_op.csv:2: malformed op");
    TempTrace lpn("rif_bad_lpn.csv", "R,ten,1\n");
    EXPECT_DEATH(StreamTrace(lpn.path()),
                 "rif_bad_lpn.csv:1: malformed lpn");
    TempTrace count("rif_bad_fields.csv", "R,10,1,2,3\n");
    EXPECT_DEATH(StreamTrace(count.path(), TraceFormat::Csv),
                 "rif_bad_fields.csv:1: malformed line");
    // Arrival times must be finite and fit the 64-bit nanosecond clock.
    TempTrace nan("rif_bad_nan.csv", "R,1,1,nan\n");
    EXPECT_DEATH(StreamTrace(nan.path()),
                 "rif_bad_nan.csv:1: malformed arrival_us");
    TempTrace inf("rif_bad_inf.csv", "R,1,1,inf\n");
    EXPECT_DEATH(StreamTrace(inf.path()),
                 "rif_bad_inf.csv:1: malformed arrival_us");
    TempTrace huge("rif_bad_huge.csv", "R,1,1,1e300\n");
    EXPECT_DEATH(StreamTrace(huge.path()),
                 "rif_bad_huge.csv:1: timestamp overflows");
    // MSR filetime (100 ns units) and Alibaba (us) past 2^64 ns.
    TempTrace msr("rif_bad_msr.csv",
                  "200000000000000000,hm,0,Read,0,4096,1\n");
    EXPECT_DEATH(StreamTrace(msr.path()),
                 "rif_bad_msr.csv:1: timestamp overflows");
    TempTrace ali("rif_bad_ali.csv", "0,R,0,4096,20000000000000000\n");
    EXPECT_DEATH(StreamTrace(ali.path()),
                 "rif_bad_ali.csv:1: timestamp overflows");
}

TEST(StreamTraceDeathTest, ZeroLengthRequestsAreFatal)
{
    TempTrace csv("rif_zero_csv.csv", "R,10,0\n");
    EXPECT_DEATH(StreamTrace(csv.path()),
                 "rif_zero_csv.csv:1: zero-length request");
    TempTrace ali("rif_zero_ali.csv", "0,R,16384,0,10\n");
    EXPECT_DEATH(StreamTrace(ali.path()),
                 "rif_zero_ali.csv:1: zero-length request");
}

TEST(StreamTraceDeathTest, AddressOverflowIsFatal)
{
    TempTrace csv("rif_ovf_csv.csv",
                  "R,18446744073709551615,1\n");
    EXPECT_DEATH(StreamTrace(csv.path()),
                 "rif_ovf_csv.csv:1: lpn . pages overflows");
    TempTrace ali("rif_ovf_ali.csv",
                  "0,R,18446744073709551615,2,10\n");
    EXPECT_DEATH(StreamTrace(ali.path()),
                 "rif_ovf_ali.csv:1: offset . length overflows");
}

TEST(StreamTraceDeathTest, EmptyAndUnknownDialectsAreFatal)
{
    TempTrace empty("rif_empty.csv", "# only comments\n\n");
    EXPECT_DEATH(StreamTrace(empty.path()), "contains no requests");
    TempTrace weird("rif_weird.csv", "1,2\n");
    EXPECT_DEATH(StreamTrace(weird.path()),
                 "unrecognized trace dialect");
    EXPECT_DEATH(StreamTrace("/nonexistent/trace.csv"), "cannot open");
}

// ---------------------------------------------------------------------
// Arrival processes and composition.
// ---------------------------------------------------------------------

TEST(ArrivalProcesses, PoissonIsDeterministicAndMonotonic)
{
    PoissonArrivals a(100000, 7), b(100000, 7);
    Tick prev = 0;
    for (int i = 0; i < 1000; ++i) {
        const Tick ta = a.next();
        EXPECT_EQ(ta, b.next());
        EXPECT_GE(ta, prev);
        prev = ta;
    }
    // A different seed is a different process.
    PoissonArrivals c(100000, 8);
    c.next();
    EXPECT_NE(a.next(), c.next());
}

TEST(TimedTrace, StampsArrivalsAndForwardsEverythingElse)
{
    SyntheticWorkload inner(workloadByName("Sys0"), 100, 3);
    SyntheticWorkload bare(workloadByName("Sys0"), 100, 3);
    PoissonArrivals gen(500000, 3);
    PoissonArrivals twin(500000, 3);
    TimedTrace timed(inner, gen);
    EXPECT_EQ(timed.footprintPages(), bare.footprintPages());
    EXPECT_EQ(timed.coldRegionStart(), bare.coldRegionStart());
    EXPECT_EQ(timed.isCold(0), bare.isCold(0));
    // Pacing does not perturb the snapshot-cache identity.
    EXPECT_EQ(digestOf(timed).lo, digestOf(bare).lo);
    EXPECT_EQ(digestOf(timed).hi, digestOf(bare).hi);

    IoRecord rec, want;
    int i = 0;
    while (timed.next(rec)) {
        ASSERT_TRUE(bare.next(want));
        EXPECT_EQ(rec.lpn, want.lpn);
        EXPECT_EQ(rec.arrival, twin.next());
        ++i;
    }
    EXPECT_EQ(i, 100);
}

TEST(OffsetTrace, PreservesArrivalsAndAnswersColdnessWhenTimed)
{
    // A timestamped tenant shifted into its partition: arrivals pass
    // through untouched, coldness still answers inside the partition.
    VectorTrace inner({{true, 0, 2, usToTicks(3.0)},
                       {false, 4, 1, usToTicks(9.0)}},
                      100, 50);
    OffsetTrace shifted(inner, 1000);
    PoissonArrivals gen(1000000, 1);
    TimedTrace timed(shifted, gen);
    EXPECT_TRUE(timed.isCold(1060));
    EXPECT_FALSE(timed.isCold(1010));

    IoRecord rec;
    ASSERT_TRUE(shifted.next(rec));
    EXPECT_EQ(rec.lpn, 1000u);
    EXPECT_EQ(rec.arrival, usToTicks(3.0));
    ASSERT_TRUE(timed.next(rec));
    EXPECT_EQ(rec.lpn, 1004u);
    // Restamped by the process (its first arrival, tick zero), not the
    // record's own timestamp.
    EXPECT_EQ(rec.arrival, usToTicks(0.0));
}

// ---------------------------------------------------------------------
// WorkloadConfig: the workload engine's front door.
// ---------------------------------------------------------------------

TEST(WorkloadConfig, ParsesEveryArrivalMode)
{
    for (ArrivalMode m : {ArrivalMode::Closed, ArrivalMode::Timestamp,
                          ArrivalMode::Poisson}) {
        ArrivalMode out = ArrivalMode::Closed;
        ASSERT_TRUE(parseArrivalMode(arrivalModeName(m), out));
        EXPECT_EQ(out, m);
    }
    ArrivalMode out;
    EXPECT_FALSE(parseArrivalMode("sometimes", out));
    EXPECT_FALSE(parseArrivalMode("rate", out));
    WorkloadConfig cfg;
    EXPECT_FALSE(cfg.openLoop());
    cfg.arrival = "poisson";
    EXPECT_TRUE(cfg.openLoop());
}

TEST(WorkloadConfigDeathTest, ValidateCatchesNonsense)
{
    {
        WorkloadConfig cfg;
        cfg.arrival = "sometimes";
        EXPECT_DEATH(cfg.validate(), "unknown mode");
    }
    {
        WorkloadConfig cfg;
        cfg.format = "vhd";
        EXPECT_DEATH(cfg.validate(), "unknown dialect");
    }
    {
        WorkloadConfig cfg;
        cfg.rateKiops = 0.0;
        EXPECT_DEATH(cfg.validate(), "rateKiops");
    }
    {
        WorkloadConfig cfg;
        cfg.arrival = "diurnal";
        EXPECT_DEATH(cfg.validate(), "unknown mode");
    }
    {
        WorkloadConfig cfg;
        cfg.queueCap = 0;
        EXPECT_DEATH(cfg.validate(), "queueCap");
    }
}

TEST(WorkloadConfig, OpenWorkloadAssemblesTheConfiguredChain)
{
    // No trace: the synthetic fallback, untimed for closed loop.
    WorkloadConfig closed;
    auto synth = openWorkload(closed, workloadByName("Sys1"), 50, 9);
    IoRecord rec;
    ASSERT_TRUE(synth->next(rec));
    EXPECT_EQ(rec.arrival, 0u);

    // A trace with its own timestamps, replayed as-is.
    TempTrace t("rif_test_open.csv", "R,10,1,5.0\nR,20,1,8.0\n");
    WorkloadConfig ts;
    ts.trace = t.path();
    ts.arrival = "timestamp";
    auto replay = openWorkload(ts, workloadByName("Sys1"), 50, 9);
    ASSERT_TRUE(replay->next(rec));
    ASSERT_TRUE(replay->next(rec));
    EXPECT_EQ(rec.arrival, usToTicks(3.0));

    // The same trace restamped by the Poisson process.
    WorkloadConfig poisson = ts;
    poisson.arrival = "poisson";
    poisson.rateKiops = 1000.0;
    PoissonArrivals want(poisson.rateKiops * 1e3, poisson.arrivalSeed);
    auto timed = openWorkload(poisson, workloadByName("Sys1"), 50, 9);
    ASSERT_TRUE(timed->next(rec));
    EXPECT_EQ(rec.arrival, want.next());
    ASSERT_TRUE(timed->next(rec));
    EXPECT_EQ(rec.arrival, want.next());
    EXPECT_GT(rec.arrival, 0u);
    EXPECT_EQ(timed->footprintPages(), 21u);
}

} // namespace
} // namespace trace
} // namespace rif
