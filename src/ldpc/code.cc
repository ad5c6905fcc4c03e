#include "ldpc/code.h"

#include <set>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace rif {
namespace ldpc {

CodeParams
paperCode()
{
    return CodeParams{};
}

CodeParams
testCode()
{
    CodeParams p;
    p.circulant = 64;
    return p;
}

QcLdpcCode::QcLdpcCode(const CodeParams &params)
    : params_(params)
{
    RIF_ASSERT(params_.blockRows >= 2 && params_.blockCols > params_.blockRows);
    RIF_ASSERT(params_.circulant >= 4);
    chooseShifts();
    buildAdjacency();
}

int
QcLdpcCode::shift(int i, int j) const
{
    return shifts_[static_cast<std::size_t>(i) * params_.dataBlocks() + j];
}

void
QcLdpcCode::chooseShifts()
{
    const int r = params_.blockRows;
    const int d = params_.dataBlocks();
    const int t = params_.circulant;
    shifts_.assign(static_cast<std::size_t>(r) * d, 0);

    Rng rng(params_.seed);

    // For each unordered block-row pair (i1, i2), the set of shift
    // differences C[i1][j] - C[i2][j] (mod t) seen so far. Two block
    // columns with an equal difference for some row pair create a
    // length-4 cycle in the Tanner graph, which harms min-sum badly.
    // The bidiagonal parity columns contribute difference 0 for each
    // adjacent row pair, so 0 is pre-reserved there.
    std::vector<std::set<int>> used;
    used.resize(static_cast<std::size_t>(r) * r);
    auto diffsAt = [&](int i1, int i2) -> std::set<int> & {
        return used[static_cast<std::size_t>(i1) * r + i2];
    };
    for (int i = 0; i + 1 < r; ++i)
        diffsAt(i, i + 1).insert(0);

    for (int j = 0; j < d; ++j) {
        for (int attempt = 0;; ++attempt) {
            RIF_ASSERT(attempt < 10000,
                       "girth-4-free shift search failed; circulant too small");
            std::vector<int> cand(static_cast<std::size_t>(r));
            for (int i = 0; i < r; ++i)
                cand[i] = static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(t)));
            bool ok = true;
            for (int i1 = 0; i1 < r && ok; ++i1) {
                for (int i2 = i1 + 1; i2 < r && ok; ++i2) {
                    const int diff =
                        ((cand[i1] - cand[i2]) % t + t) % t;
                    if (diffsAt(i1, i2).count(diff))
                        ok = false;
                }
            }
            if (!ok)
                continue;
            for (int i1 = 0; i1 < r; ++i1) {
                for (int i2 = i1 + 1; i2 < r; ++i2) {
                    const int diff =
                        ((cand[i1] - cand[i2]) % t + t) % t;
                    diffsAt(i1, i2).insert(diff);
                }
            }
            for (int i = 0; i < r; ++i)
                shifts_[static_cast<std::size_t>(i) * d + j] = cand[i];
            break;
        }
    }
}

void
QcLdpcCode::buildAdjacency()
{
    const int r = params_.blockRows;
    const int d = params_.dataBlocks();
    const int t = params_.circulant;
    const std::size_t k = params_.k();

    chkStart_.assign(params_.m() + 1, 0);
    // Row degree: d data circulants + 1 or 2 parity identities.
    std::size_t edges = 0;
    for (int i = 0; i < r; ++i) {
        const std::size_t deg =
            static_cast<std::size_t>(d) + (i == 0 ? 1 : 2);
        edges += deg * static_cast<std::size_t>(t);
    }
    edgeVar_.reserve(edges);

    for (int i = 0; i < r; ++i) {
        for (int a = 0; a < t; ++a) {
            const std::size_t m = static_cast<std::size_t>(i) * t + a;
            chkStart_[m] = static_cast<std::uint32_t>(edgeVar_.size());
            for (int j = 0; j < d; ++j) {
                const int c = shift(i, j);
                const int b = (a + c) % t;
                edgeVar_.push_back(static_cast<std::uint32_t>(
                    static_cast<std::size_t>(j) * t + b));
            }
            // Parity block i (always) and parity block i-1 (for i > 0).
            edgeVar_.push_back(static_cast<std::uint32_t>(
                k + static_cast<std::size_t>(i) * t + a));
            if (i > 0) {
                edgeVar_.push_back(static_cast<std::uint32_t>(
                    k + static_cast<std::size_t>(i - 1) * t + a));
            }
        }
    }
    chkStart_[params_.m()] = static_cast<std::uint32_t>(edgeVar_.size());
}

void
QcLdpcCode::xorRowSyndrome(const BitVec &word, int i, BitVec &acc,
                           std::size_t acc_offset) const
{
    const int d = params_.dataBlocks();
    const auto t = static_cast<std::size_t>(params_.circulant);
    const std::size_t k = params_.k();

    // Check i*t + a covers data bit j*t + (a + C_ij) mod t: the circulant
    // acting on segment j is a cyclic left rotation by C_ij, realized as
    // two word-parallel XOR ranges (the rotation's wrap split).
    for (int j = 0; j < d; ++j) {
        const auto c = static_cast<std::size_t>(shift(i, j));
        const std::size_t seg = static_cast<std::size_t>(j) * t;
        acc.xorRange(acc_offset, word, seg + c, t - c);
        if (c != 0)
            acc.xorRange(acc_offset + t - c, word, seg, c);
    }
    // Parity block i (identity) and parity block i-1 (bidiagonal).
    acc.xorRange(acc_offset, word, k + static_cast<std::size_t>(i) * t, t);
    if (i > 0) {
        acc.xorRange(acc_offset, word,
                     k + static_cast<std::size_t>(i - 1) * t, t);
    }
}

BitVec
QcLdpcCode::encode(const BitVec &data) const
{
    RIF_ASSERT(data.size() == params_.k());
    const int r = params_.blockRows;
    const int d = params_.dataBlocks();
    const auto t = static_cast<std::size_t>(params_.circulant);
    const std::size_t k = params_.k();

    BitVec word(params_.n());
    word.xorRange(0, data, 0, k);

    // Back-substitution through the bidiagonal parity part:
    // p_0 = sd_0, p_i = sd_i ^ p_{i-1}, where sd_i is the XOR of the
    // rotated data segments of block row i.
    BitVec p(t);
    for (int i = 0; i < r; ++i) {
        for (int j = 0; j < d; ++j) {
            const auto c = static_cast<std::size_t>(shift(i, j));
            const std::size_t seg = static_cast<std::size_t>(j) * t;
            p.xorRange(0, data, seg + c, t - c);
            if (c != 0)
                p.xorRange(t - c, data, seg, c);
        }
        word.xorRange(k + static_cast<std::size_t>(i) * t, p, 0, t);
        // p now holds p_i; keep accumulating so the next row starts from
        // sd_{i+1} ^ p_i.
    }
    return word;
}

BitVec
QcLdpcCode::referenceEncode(const BitVec &data) const
{
    RIF_ASSERT(data.size() == params_.k());
    const int r = params_.blockRows;
    const int d = params_.dataBlocks();
    const int t = params_.circulant;

    BitVec word(params_.n());
    for (std::size_t b = 0; b < data.size(); ++b)
        word.set(b, data.get(b));

    // Partial syndromes of the data part, per block row.
    std::vector<BitVec> sd(static_cast<std::size_t>(r),
                           BitVec(static_cast<std::size_t>(t)));
    for (int i = 0; i < r; ++i) {
        for (int j = 0; j < d; ++j) {
            const int c = shift(i, j);
            const std::size_t base = static_cast<std::size_t>(j) * t;
            for (int a = 0; a < t; ++a)
                if (data.get(base + (a + c) % t))
                    sd[i].flip(a);
        }
    }

    // Back-substitution through the bidiagonal parity part:
    // p0 = sd0, pk = sdk ^ p(k-1).
    const std::size_t k = params_.k();
    BitVec prev(static_cast<std::size_t>(t));
    for (int i = 0; i < r; ++i) {
        for (int a = 0; a < t; ++a) {
            const bool p = sd[i].get(a) != prev.get(a);
            word.set(k + static_cast<std::size_t>(i) * t + a, p);
            prev.set(a, p);
        }
    }
    return word;
}

void
QcLdpcCode::syndromeInto(const BitVec &word, BitVec &out) const
{
    RIF_ASSERT(word.size() == params_.n());
    const auto t = static_cast<std::size_t>(params_.circulant);
    out.reset(params_.m());
    for (int i = 0; i < params_.blockRows; ++i)
        xorRowSyndrome(word, i, out, static_cast<std::size_t>(i) * t);
}

BitVec
QcLdpcCode::syndrome(const BitVec &word) const
{
    BitVec s;
    syndromeInto(word, s);
    return s;
}

BitVec
QcLdpcCode::referenceSyndrome(const BitVec &word) const
{
    RIF_ASSERT(word.size() == params_.n());
    BitVec s(params_.m());
    for (std::size_t m = 0; m < params_.m(); ++m) {
        bool acc = false;
        for (std::uint32_t e = chkStart_[m]; e < chkStart_[m + 1]; ++e)
            acc ^= word.get(edgeVar_[e]);
        s.set(m, acc);
    }
    return s;
}

std::size_t
QcLdpcCode::syndromeWeight(const BitVec &word) const
{
    return syndrome(word).popcount();
}

std::size_t
QcLdpcCode::prunedSyndromeWeight(const BitVec &word) const
{
    RIF_ASSERT(word.size() == params_.n());
    static thread_local BitVec row;
    row.reset(static_cast<std::size_t>(params_.circulant));
    xorRowSyndrome(word, 0, row, 0);
    return row.popcount();
}

bool
QcLdpcCode::isCodeword(const BitVec &word, BitVec &row_scratch) const
{
    RIF_ASSERT(word.size() == params_.n());
    const auto t = static_cast<std::size_t>(params_.circulant);
    for (int i = 0; i < params_.blockRows; ++i) {
        row_scratch.reset(t);
        xorRowSyndrome(word, i, row_scratch, 0);
        if (!row_scratch.isZero())
            return false;
    }
    return true;
}

bool
QcLdpcCode::isCodeword(const BitVec &word) const
{
    BitVec row;
    return isCodeword(word, row);
}

} // namespace ldpc
} // namespace rif
