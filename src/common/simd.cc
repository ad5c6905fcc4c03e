#include "common/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if RIF_SIMD_ENABLED && defined(__x86_64__)
#define RIF_SIMD_X86 1
#include <immintrin.h>
#else
#define RIF_SIMD_X86 0
#endif

namespace rif {
namespace simd {

namespace {

void
xorWordsScalar(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= src[i];
}

std::size_t
popcountWordsScalar(const std::uint64_t *p, std::size_t n)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += static_cast<std::size_t>(std::popcount(p[i]));
    return total;
}

void
xorFunnelWordsScalar(std::uint64_t *dst, const std::uint64_t *a,
                     const std::uint64_t *b, unsigned sb, std::uint64_t mask,
                     unsigned db, std::size_t n)
{
    if (b != nullptr) {
        const unsigned up = 64u - sb;
        for (std::size_t i = 0; i < n; ++i)
            dst[i] ^= (((a[i] >> sb) | (b[i] << up)) & mask) << db;
    } else {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] ^= ((a[i] >> sb) & mask) << db;
    }
}

/** c2v of edge e in lane l, rebuilt from its check's state. */
inline float
c2vLane(const MinSumCheck8 &c, std::uint32_t e, unsigned edge_bits,
        std::size_t l)
{
    const float mag = e == c.minEdge[l] ? c.mag2[l] : c.mag1[l];
    const std::uint32_t sign =
        c.sign[l] ^ (((edge_bits >> l) & 1u) ? kFloatSignBit : 0u);
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(mag) ^ sign);
}

void
minsumCheckPass8Scalar(const std::uint32_t *cs, std::size_t m,
                       const std::uint32_t *edge_var, const float *total,
                       MinSumCheck8 *checks, std::uint8_t *edge_sign,
                       float alpha)
{
    constexpr std::size_t L = 8;
    for (std::size_t chk = 0; chk < m; ++chk) {
        const MinSumCheck8 old = checks[chk];
        const std::uint32_t lo = cs[chk];
        const std::uint32_t hi = cs[chk + 1];
        float min1[L], min2[L];
        std::uint32_t minE[L], sgn[L];
        for (std::size_t l = 0; l < L; ++l) {
            min1[l] = 1e30f;
            min2[l] = 1e30f;
            minE[l] = lo;
            sgn[l] = 0;
        }
        for (std::uint32_t e = lo; e < hi; ++e) {
            const float *tv =
                total + static_cast<std::size_t>(edge_var[e]) * L;
            const unsigned old_bits = edge_sign[e];
            unsigned new_bits = 0;
            for (std::size_t l = 0; l < L; ++l) {
                const float v = tv[l] - c2vLane(old, e, old_bits, l);
                const bool neg = v < 0.0f;
                new_bits |= static_cast<unsigned>(neg) << l;
                sgn[l] ^= neg ? kFloatSignBit : 0u;
                const float mag = std::fabs(v);
                minE[l] = mag < min1[l] ? e : minE[l];
                min2[l] = std::min(std::max(mag, min1[l]), min2[l]);
                min1[l] = std::min(mag, min1[l]);
            }
            edge_sign[e] = static_cast<std::uint8_t>(new_bits);
        }
        MinSumCheck8 &c = checks[chk];
        for (std::size_t l = 0; l < L; ++l) {
            c.mag1[l] = alpha * min1[l];
            c.mag2[l] = alpha * min2[l];
            c.minEdge[l] = minE[l];
            c.sign[l] = sgn[l];
        }
    }
}

/**
 * Pack the hard decisions total < 0 of n variables (see simd.h), bit by
 * bit; the AVX2 variable pass packs with movemasks instead.
 */
void
packHardDecisions8(const float *total, std::size_t n,
                   std::uint64_t *hard_words)
{
    constexpr std::size_t L = 8;
    std::uint64_t pack[L] = {};
    for (std::size_t v = 0; v < n; ++v) {
        const unsigned bit = static_cast<unsigned>(v & 63);
        for (std::size_t l = 0; l < L; ++l)
            pack[l] |= static_cast<std::uint64_t>(total[v * L + l] < 0.0f)
                       << bit;
        if (bit == 63 || v + 1 == n) {
            std::uint64_t *dst = hard_words + (v >> 6) * L;
            for (std::size_t l = 0; l < L; ++l) {
                dst[l] = pack[l];
                pack[l] = 0;
            }
        }
    }
}

void
minsumVarPass8Scalar(const std::uint8_t *chan_sign, float llr,
                     std::size_t n, const std::uint32_t *cs, std::size_t m,
                     const std::uint32_t *edge_var,
                     const MinSumCheck8 *checks,
                     const std::uint8_t *edge_sign, float *total,
                     std::uint64_t *hard_words)
{
    constexpr std::size_t L = 8;
    for (std::size_t v = 0; v < n; ++v)
        for (std::size_t l = 0; l < L; ++l)
            total[v * L + l] = (chan_sign[v] >> l) & 1u ? -llr : llr;
    for (std::size_t chk = 0; chk < m; ++chk) {
        const MinSumCheck8 c = checks[chk];
        for (std::uint32_t e = cs[chk]; e < cs[chk + 1]; ++e) {
            float *tv = total + static_cast<std::size_t>(edge_var[e]) * L;
            const unsigned bits = edge_sign[e];
            for (std::size_t l = 0; l < L; ++l)
                tv[l] += c2vLane(c, e, bits, l);
        }
    }
    packHardDecisions8(total, n, hard_words);
}

#if RIF_SIMD_X86

/** Row b, lane l: kFloatSignBit if bit l of b is set, else 0. */
struct LaneSignTable
{
    alignas(32) std::uint32_t row[256][8];
};

constexpr LaneSignTable
makeLaneSignTable()
{
    LaneSignTable t{};
    for (unsigned b = 0; b < 256; ++b)
        for (unsigned l = 0; l < 8; ++l)
            t.row[b][l] = (b >> l) & 1u ? kFloatSignBit : 0u;
    return t;
}

// Constant-initialized (8 KiB), so no static-initialization order issue.
constexpr LaneSignTable kLaneSign = makeLaneSignTable();

/** Bit l of `bits` as the float sign bit of lane l: one aligned load. */
__attribute__((target("avx2"))) inline __m256
laneSignMask(std::uint8_t bits)
{
    return _mm256_castsi256_ps(_mm256_load_si256(
        reinterpret_cast<const __m256i *>(kLaneSign.row[bits])));
}

/**
 * One check's MinSumCheck8 in the form c2v is rebuilt from: base =
 * mag1 ^ sign and delta = mag1 ^ mag2, so that selecting mag2 on the
 * minimum edge is one AND and one XOR rather than a blend.
 */
struct C2vRegs
{
    __m256 base, delta;
    __m256i minEdge;
};

__attribute__((target("avx2"))) inline C2vRegs
loadC2v(const MinSumCheck8 &c)
{
    const __m256 mag1 = _mm256_loadu_ps(c.mag1);
    return {_mm256_xor_ps(
                mag1, _mm256_loadu_ps(reinterpret_cast<const float *>(c.sign))),
            _mm256_xor_ps(mag1, _mm256_loadu_ps(c.mag2)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(c.minEdge))};
}

/**
 * All 8 lanes of c2v(e), E = e in every lane: the bits of
 * (e == minEdge ? mag2 : mag1) ^ sign ^ (edge sign bit), ±0 included.
 */
__attribute__((target("avx2"))) inline __m256
c2vXor(const C2vRegs &c, __m256i E, std::uint8_t edge_bits)
{
    const __m256 isMin =
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(c.minEdge, E));
    return _mm256_xor_ps(_mm256_xor_ps(c.base, laneSignMask(edge_bits)),
                         _mm256_and_ps(isMin, c.delta));
}

__attribute__((target("avx2"))) void
minsumCheckPass8Avx2(const std::uint32_t *cs, std::size_t m,
                     const std::uint32_t *edge_var, const float *total,
                     MinSumCheck8 *checks, std::uint8_t *edge_sign,
                     float alpha)
{
    // One 256-bit vector holds all 8 lanes of a message or a state
    // field. Sign flips are sign-bit XORs and |x| an AND, so every lane
    // computes the exact float sequence of the scalar path. The loop
    // has no blend: minEdge is an unsigned max over the increasing edge
    // indices that improve min1, and the sign product accumulates as
    // the XOR of the v < 0 masks, cut to the sign bit once per check
    // (DESIGN.md §5f).
    const __m256 vabs =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 vsign = _mm256_castsi256_ps(
        _mm256_set1_epi32(static_cast<int>(kFloatSignBit)));
    const __m256 vzero = _mm256_setzero_ps();
    const __m256 valpha = _mm256_set1_ps(alpha);
    const __m256i vone = _mm256_set1_epi32(1);
    for (std::size_t chk = 0; chk < m; ++chk) {
        MinSumCheck8 &c = checks[chk];
        const C2vRegs old = loadC2v(c);
        const std::uint32_t lo = cs[chk];
        const std::uint32_t hi = cs[chk + 1];
        __m256 min1 = _mm256_set1_ps(1e30f);
        __m256 min2 = min1;
        __m256 negs = vzero;
        __m256i E = _mm256_set1_epi32(static_cast<int>(lo));
        __m256i minE = E;
        for (std::uint32_t e = lo; e < hi;
             ++e, E = _mm256_add_epi32(E, vone)) {
            const __m256 v = _mm256_sub_ps(
                _mm256_loadu_ps(total +
                                static_cast<std::size_t>(edge_var[e]) * 8),
                c2vXor(old, E, edge_sign[e]));
            const __m256 neg = _mm256_cmp_ps(v, vzero, _CMP_LT_OQ);
            edge_sign[e] =
                static_cast<std::uint8_t>(_mm256_movemask_ps(neg));
            negs = _mm256_xor_ps(negs, neg);
            const __m256 mag = _mm256_and_ps(v, vabs);
            const __m256 lt1 = _mm256_cmp_ps(mag, min1, _CMP_LT_OQ);
            minE = _mm256_max_epu32(
                minE, _mm256_and_si256(_mm256_castps_si256(lt1), E));
            min2 = _mm256_min_ps(_mm256_max_ps(mag, min1), min2);
            min1 = _mm256_min_ps(mag, min1);
        }
        _mm256_storeu_ps(c.mag1, _mm256_mul_ps(valpha, min1));
        _mm256_storeu_ps(c.mag2, _mm256_mul_ps(valpha, min2));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(c.minEdge), minE);
        _mm256_storeu_ps(reinterpret_cast<float *>(c.sign),
                         _mm256_and_ps(negs, vsign));
    }
}

__attribute__((target("avx2"))) void
minsumVarPass8Avx2(const std::uint8_t *chan_sign, float llr, std::size_t n,
                   const std::uint32_t *cs, std::size_t m,
                   const std::uint32_t *edge_var, const MinSumCheck8 *checks,
                   const std::uint8_t *edge_sign, float *total,
                   std::uint64_t *hard_words)
{
    const __m256 vllr = _mm256_set1_ps(llr);
    const __m256i vone = _mm256_set1_epi32(1);
    for (std::size_t v = 0; v < n; ++v)
        _mm256_storeu_ps(total + v * 8,
                         _mm256_xor_ps(vllr, laneSignMask(chan_sign[v])));
    for (std::size_t chk = 0; chk < m; ++chk) {
        const C2vRegs c = loadC2v(checks[chk]);
        const std::uint32_t lo = cs[chk];
        const std::uint32_t hi = cs[chk + 1];
        __m256i E = _mm256_set1_epi32(static_cast<int>(lo));
        for (std::uint32_t e = lo; e < hi;
             ++e, E = _mm256_add_epi32(E, vone)) {
            float *tv = total + static_cast<std::size_t>(edge_var[e]) * 8;
            _mm256_storeu_ps(tv, _mm256_add_ps(_mm256_loadu_ps(tv),
                                               c2vXor(c, E, edge_sign[e])));
        }
    }
    // Hard decisions, 64 variables per word: byte k holds the lane bits
    // of variable k (total < 0, so -0.0f packs as 0 like the scalar
    // path); shifting each 64-bit element left by 7 - l brings lane l's
    // bit to the top of every byte, where movemask_epi8 gathers 32 of
    // them. Bytes past n stay zero, so the tail bits are zero.
    const __m256 vzero = _mm256_setzero_ps();
    for (std::size_t v0 = 0; v0 < n; v0 += 64) {
        const std::size_t cnt = std::min<std::size_t>(64, n - v0);
        alignas(32) std::uint8_t neg[64] = {};
        for (std::size_t k = 0; k < cnt; ++k)
            neg[k] = static_cast<std::uint8_t>(_mm256_movemask_ps(
                _mm256_cmp_ps(_mm256_loadu_ps(total + (v0 + k) * 8), vzero,
                              _CMP_LT_OQ)));
        const __m256i lo =
            _mm256_load_si256(reinterpret_cast<const __m256i *>(neg));
        const __m256i hi =
            _mm256_load_si256(reinterpret_cast<const __m256i *>(neg + 32));
        std::uint64_t *dst = hard_words + (v0 >> 6) * 8;
        for (int l = 0; l < 8; ++l) {
            const auto bitsLo = static_cast<std::uint32_t>(
                _mm256_movemask_epi8(_mm256_slli_epi64(lo, 7 - l)));
            const auto bitsHi = static_cast<std::uint32_t>(
                _mm256_movemask_epi8(_mm256_slli_epi64(hi, 7 - l)));
            dst[l] = bitsLo | static_cast<std::uint64_t>(bitsHi) << 32;
        }
    }
}

__attribute__((target("avx2"))) void
xorWordsAvx2(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_xor_si256(d, s));
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

__attribute__((target("avx2"))) std::size_t
popcountWordsAvx2(const std::uint64_t *p, std::size_t n)
{
    // AVX2 has no 64-bit popcount; the scalar popcnt instruction at two
    // words per cycle already saturates the load bandwidth here, so the
    // vector build keeps the scalar reduction (unrolled for the two
    // execution ports).
    std::size_t a = 0, b = 0;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        a += static_cast<std::size_t>(std::popcount(p[i]));
        b += static_cast<std::size_t>(std::popcount(p[i + 1]));
    }
    if (i < n)
        a += static_cast<std::size_t>(std::popcount(p[i]));
    return a + b;
}

__attribute__((target("avx2"))) void
xorFunnelWordsAvx2(std::uint64_t *dst, const std::uint64_t *a,
                   const std::uint64_t *b, unsigned sb, std::uint64_t mask,
                   unsigned db, std::size_t n)
{
    const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
    std::size_t i = 0;
    if (b != nullptr) {
        const int up = static_cast<int>(64u - sb);
        for (; i + 4 <= n; i += 4) {
            const __m256i lo = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + i));
            const __m256i hi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i));
            __m256i bits = _mm256_or_si256(
                _mm256_srli_epi64(lo, static_cast<int>(sb)),
                _mm256_slli_epi64(hi, up));
            bits = _mm256_and_si256(bits, vmask);
            bits = _mm256_slli_epi64(bits, static_cast<int>(db));
            const __m256i d = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(dst + i));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                                _mm256_xor_si256(d, bits));
        }
    } else {
        for (; i + 4 <= n; i += 4) {
            __m256i bits = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + i));
            bits = _mm256_srli_epi64(bits, static_cast<int>(sb));
            bits = _mm256_and_si256(bits, vmask);
            bits = _mm256_slli_epi64(bits, static_cast<int>(db));
            const __m256i d = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(dst + i));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                                _mm256_xor_si256(d, bits));
        }
    }
    if (i < n)
        xorFunnelWordsScalar(dst + i, a + i, b ? b + i : nullptr, sb, mask,
                             db, n - i);
}

bool
haveAvx2()
{
    static const bool have = __builtin_cpu_supports("avx2");
    return have;
}

#endif // RIF_SIMD_X86

using XorWordsFn = void (*)(std::uint64_t *, const std::uint64_t *,
                            std::size_t);
using PopcountFn = std::size_t (*)(const std::uint64_t *, std::size_t);
using FunnelFn = void (*)(std::uint64_t *, const std::uint64_t *,
                          const std::uint64_t *, unsigned, std::uint64_t,
                          unsigned, std::size_t);
using CheckPassFn = void (*)(const std::uint32_t *, std::size_t,
                             const std::uint32_t *, const float *,
                             MinSumCheck8 *, std::uint8_t *, float);
using VarPassFn = void (*)(const std::uint8_t *, float, std::size_t,
                           const std::uint32_t *, std::size_t,
                           const std::uint32_t *, const MinSumCheck8 *,
                           const std::uint8_t *, float *, std::uint64_t *);

#if RIF_SIMD_X86
XorWordsFn
pickXorWords()
{
    return haveAvx2() ? xorWordsAvx2 : xorWordsScalar;
}
PopcountFn
pickPopcount()
{
    return haveAvx2() ? popcountWordsAvx2 : popcountWordsScalar;
}
FunnelFn
pickFunnel()
{
    return haveAvx2() ? xorFunnelWordsAvx2 : xorFunnelWordsScalar;
}
CheckPassFn
pickCheckPass()
{
    return haveAvx2() ? minsumCheckPass8Avx2 : minsumCheckPass8Scalar;
}
VarPassFn
pickVarPass()
{
    return haveAvx2() ? minsumVarPass8Avx2 : minsumVarPass8Scalar;
}
#else
XorWordsFn
pickXorWords()
{
    return xorWordsScalar;
}
PopcountFn
pickPopcount()
{
    return popcountWordsScalar;
}
FunnelFn
pickFunnel()
{
    return xorFunnelWordsScalar;
}
CheckPassFn
pickCheckPass()
{
    return minsumCheckPass8Scalar;
}
VarPassFn
pickVarPass()
{
    return minsumVarPass8Scalar;
}
#endif

// Resolved once; plain function-pointer dispatch afterwards. The
// kernels are called with hundreds of words per invocation, so the
// indirect call is noise.
const XorWordsFn gXorWords = pickXorWords();
const PopcountFn gPopcount = pickPopcount();
const FunnelFn gFunnel = pickFunnel();
const CheckPassFn gCheckPass = pickCheckPass();
const VarPassFn gVarPass = pickVarPass();

} // namespace

const char *
backendName()
{
#if RIF_SIMD_X86
    return haveAvx2() ? "avx2" : "scalar";
#else
    return "scalar";
#endif
}

void
xorWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    gXorWords(dst, src, n);
}

std::size_t
popcountWords(const std::uint64_t *p, std::size_t n)
{
    return gPopcount(p, n);
}

void
xorFunnelWords(std::uint64_t *dst, const std::uint64_t *a,
               const std::uint64_t *b, unsigned sb, std::uint64_t mask,
               unsigned db, std::size_t n)
{
    gFunnel(dst, a, b, sb, mask, db, n);
}

void
minsumCheckPass8(const std::uint32_t *check_offsets, std::size_t m,
                 const std::uint32_t *edge_var, const float *total,
                 MinSumCheck8 *checks, std::uint8_t *edge_sign, float alpha)
{
    gCheckPass(check_offsets, m, edge_var, total, checks, edge_sign, alpha);
}

void
minsumVarPass8(const std::uint8_t *chan_sign, float llr, std::size_t n,
               const std::uint32_t *check_offsets, std::size_t m,
               const std::uint32_t *edge_var, const MinSumCheck8 *checks,
               const std::uint8_t *edge_sign, float *total,
               std::uint64_t *hard_words)
{
    gVarPass(chan_sign, llr, n, check_offsets, m, edge_var, checks,
             edge_sign, total, hard_words);
}

} // namespace simd
} // namespace rif
