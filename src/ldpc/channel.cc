#include "ldpc/channel.h"

#include <cmath>
#include <vector>

#include "common/logging.h"

namespace rif {
namespace ldpc {

void
randomDataInto(BitVec &d, Rng &rng)
{
    const std::size_t words = (d.size() + 63) / 64;
    for (std::size_t w = 0; w < words; ++w)
        d.setWord(w, rng.next());
}

BitVec
randomData(std::size_t k, Rng &rng)
{
    BitVec d(k);
    randomDataInto(d, rng);
    return d;
}

std::size_t
injectErrors(BitVec &word, double rber, Rng &rng)
{
    RIF_ASSERT(rber >= 0.0 && rber <= 1.0);
    if (rber == 0.0)
        return 0;
    // Sample the gap between errors geometrically instead of testing each
    // bit: at RBER ~1e-2 over 36k bits this is ~300 draws, not 36k.
    std::size_t flipped = 0;
    const double denom = std::log1p(-rber);
    std::size_t i = 0;
    while (true) {
        double u = 0.0;
        while (u <= 1e-300)
            u = rng.uniform();
        const auto gap =
            static_cast<std::size_t>(std::log(u) / denom);
        i += gap;
        if (i >= word.size())
            break;
        word.flip(i);
        ++flipped;
        ++i;
    }
    return flipped;
}

void
injectExactErrors(BitVec &word, std::size_t count, Rng &rng)
{
    RIF_ASSERT(count <= word.size());
    // Membership test via a reusable per-thread bitmap: the previous
    // per-call unordered_set allocated on every draw of the hot
    // accuracy/calibration path. The rejection loop consumes the exact
    // same rng.below sequence, so outputs are bit-identical.
    thread_local std::vector<std::uint64_t> marks;
    thread_local std::vector<std::size_t> chosen;
    const std::size_t words = (word.size() + 63) / 64;
    if (marks.size() < words)
        marks.resize(words, 0);
    chosen.clear();
    while (chosen.size() < count) {
        const std::size_t i = rng.below(word.size());
        std::uint64_t &m = marks[i >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        if ((m & bit) == 0) {
            m |= bit;
            chosen.push_back(i);
            word.flip(i);
        }
    }
    // Clear only the touched bits so the bitmap is ready for reuse
    // without an O(words) wipe.
    for (std::size_t i : chosen)
        marks[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

} // namespace ldpc
} // namespace rif
