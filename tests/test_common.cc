/**
 * @file
 * Unit and property tests for the common utilities: RNG determinism and
 * distribution sanity, statistics accumulators, bit vectors and table
 * formatting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/bitvec.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace rif {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform)
{
    Rng rng(9);
    int counts[10] = {};
    for (int i = 0; i < 100000; ++i) {
        const auto v = rng.below(10);
        ASSERT_LT(v, 10u);
        counts[v]++;
    }
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    constexpr int kN = 200000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < kN; ++i) {
        const double x = rng.gaussian(5.0, 2.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / kN;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(std::sqrt(sq / kN - mean * mean), 2.0, 0.05);
}

TEST(Rng, LognormalMedian)
{
    Rng rng(17);
    PercentileTracker t;
    for (int i = 0; i < 50000; ++i)
        t.add(rng.lognormal(0.0, 0.1));
    EXPECT_NEAR(t.percentile(50.0), 1.0, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(19);
    constexpr int kN = 100000;
    double sum = 0.0;
    for (int i = 0; i < kN; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / kN, 0.25, 0.01);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(23);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(29);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(ZipfSampler, InRangeAndSkewed)
{
    Rng rng(31);
    ZipfSampler z(1000, 0.9);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 200000; ++i) {
        const auto v = z.sample(rng);
        ASSERT_LT(v, 1000u);
        counts[v]++;
    }
    // Rank 0 must be far hotter than rank 500.
    EXPECT_GT(counts[0], 20 * std::max(counts[500], 1));
}

TEST(ZipfSampler, ThetaZeroIsRoughlyUniform)
{
    Rng rng(37);
    ZipfSampler z(100, 0.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; ++i)
        counts[z.sample(rng)]++;
    for (int c : counts)
        EXPECT_NEAR(c, 1000, 300);
}

TEST(PercentileTracker, ExactSmallSet)
{
    PercentileTracker t;
    for (double x : {5.0, 1.0, 3.0, 2.0, 4.0})
        t.add(x);
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t.percentile(50.0), 3.0);
    EXPECT_DOUBLE_EQ(t.percentile(100.0), 5.0);
}

TEST(PercentileTracker, MonotoneInP)
{
    Rng rng(43);
    PercentileTracker t;
    for (int i = 0; i < 10000; ++i)
        t.add(rng.uniform());
    double prev = -1.0;
    for (double p = 0.0; p <= 100.0; p += 2.5) {
        const double v = t.percentile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(PercentileTracker, CdfIsMonotone)
{
    Rng rng(47);
    PercentileTracker t;
    for (int i = 0; i < 5000; ++i)
        t.add(rng.gaussian());
    const auto cdf = t.cdf(40);
    ASSERT_EQ(cdf.size(), 40u);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].first, cdf[i - 1].first);
        EXPECT_GE(cdf[i].second, cdf[i - 1].second);
    }
    EXPECT_NEAR(cdf.back().second, 1.0, 1e-9);
}

TEST(Units, Conversions)
{
    EXPECT_EQ(usToTicks(40.0), 40000u);
    EXPECT_DOUBLE_EQ(ticksToUs(13000), 13.0);
    EXPECT_DOUBLE_EQ(ticksToMs(2000000), 2.0);
    // 1 GB over 1 second is 1000 MB/s.
    EXPECT_NEAR(bytesPerTickToMBps(1000000000ull, kNsPerSec), 1000.0,
                1e-9);
}

class BitVecSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BitVecSizes, SetGetFlip)
{
    const std::size_t n = GetParam();
    BitVec v(n);
    Rng rng(53);
    std::vector<bool> ref(n, false);
    for (int i = 0; i < 200; ++i) {
        const std::size_t pos = rng.below(n);
        v.flip(pos);
        ref[pos] = !ref[pos];
    }
    std::size_t ones = 0;
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(v.get(i), ref[i]);
        ones += ref[i];
    }
    EXPECT_EQ(v.popcount(), ones);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVecSizes,
                         ::testing::Values(7, 64, 65, 128, 1000, 1024));

TEST(BitVec, SliceInsertRoundTrip)
{
    Rng rng(61);
    BitVec v(512);
    for (std::size_t i = 0; i < 512; ++i)
        v.set(i, rng.chance(0.5));
    const BitVec s = v.slice(128, 256);
    ASSERT_EQ(s.size(), 256u);
    for (std::size_t i = 0; i < 256; ++i)
        EXPECT_EQ(s.get(i), v.get(128 + i));
    // Back into a zero vector at the same offset.
    BitVec w(512);
    w.xorRange(128, s, 0, s.size());
    for (std::size_t i = 0; i < 256; ++i)
        EXPECT_EQ(w.get(128 + i), v.get(128 + i));
}

TEST(BitVec, UnalignedSlice)
{
    BitVec v(200);
    v.set(67, true);
    v.set(70, true);
    const BitVec s = v.slice(67, 10);
    EXPECT_TRUE(s.get(0));
    EXPECT_TRUE(s.get(3));
    EXPECT_EQ(s.popcount(), 2u);
}

TEST(BitVec, XorRangeMatchesBitwiseReference)
{
    Rng rng(79);
    for (int rep = 0; rep < 200; ++rep) {
        const std::size_t dn = 1 + rng.below(300);
        const std::size_t sn = 1 + rng.below(300);
        BitVec dst(dn), src(sn);
        for (std::size_t i = 0; i < dn; ++i)
            dst.set(i, rng.chance(0.5));
        for (std::size_t i = 0; i < sn; ++i)
            src.set(i, rng.chance(0.5));
        const std::size_t len = rng.below(std::min(dn, sn) + 1);
        const std::size_t ds = rng.below(dn - len + 1);
        const std::size_t ss = rng.below(sn - len + 1);

        BitVec ref = dst;
        for (std::size_t i = 0; i < len; ++i)
            ref.set(ds + i, ref.get(ds + i) ^ src.get(ss + i));

        dst.xorRange(ds, src, ss, len);
        ASSERT_EQ(dst, ref) << "dn=" << dn << " sn=" << sn << " len=" << len
                            << " ds=" << ds << " ss=" << ss;
    }
}

TEST(BitVec, SliceInsertNonAlignedLengths)
{
    Rng rng(83);
    BitVec v(333);
    for (std::size_t i = 0; i < 333; ++i)
        v.set(i, rng.chance(0.5));
    // Full-vector slice, empty slice, and a straddling odd-length slice.
    EXPECT_EQ(v.slice(0, 333), v);
    EXPECT_EQ(v.slice(100, 0).size(), 0u);
    const BitVec s = v.slice(61, 131);
    for (std::size_t i = 0; i < 131; ++i)
        ASSERT_EQ(s.get(i), v.get(61 + i));
    BitVec w(333);
    w.xorRange(61, s, 0, s.size());
    for (std::size_t i = 0; i < 131; ++i)
        ASSERT_EQ(w.get(61 + i), v.get(61 + i));
    EXPECT_EQ(w.popcount(), s.popcount());
}

TEST(BitVec, SetWordDropsTailBits)
{
    BitVec v(70);
    v.setWord(0, ~std::uint64_t(0));
    v.setWord(1, ~std::uint64_t(0));
    // Only bits 64..69 of the last word are inside the vector.
    EXPECT_EQ(v.popcount(), 70u);
    EXPECT_EQ(v.words()[1], 0x3fu);
    EXPECT_TRUE(v.get(69));
}

TEST(BitVec, ResetResizesAndZeroes)
{
    BitVec v(100);
    v.set(99, true);
    v.reset(65);
    EXPECT_EQ(v.size(), 65u);
    EXPECT_TRUE(v.isZero());
    v.set(64, true);
    EXPECT_EQ(v.popcount(), 1u);
    v.reset(200);
    EXPECT_EQ(v.size(), 200u);
    EXPECT_TRUE(v.isZero());
}

TEST(BitVec, IsZeroIgnoresNothingSetsEverything)
{
    BitVec v(70);
    EXPECT_TRUE(v.isZero());
    v.set(69, true);
    EXPECT_FALSE(v.isZero());
    v.set(69, false);
    EXPECT_TRUE(v.isZero());
}

TEST(Table, AlignedOutputContainsCells)
{
    Table t("demo");
    t.setHeader({"a", "b"});
    t.addRow({"1", "22"});
    t.addRow({"333", "4"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t;
    t.setHeader({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(std::uint64_t(42)), "42");
}

} // namespace
} // namespace rif
