#include "nand/randomizer.h"

namespace rif {
namespace nand {

Randomizer::Randomizer(std::uint64_t page_seed)
    : seed_(page_seed ? page_seed : 0xace1ace1ace1ace1ull)
{
}

void
Randomizer::apply(BitVec &data) const
{
    std::uint64_t lfsr = seed_;
    auto next_word = [&lfsr]() {
        std::uint64_t out = 0;
        for (int b = 0; b < 64; ++b) {
            const std::uint64_t bit =
                ((lfsr >> 63) ^ (lfsr >> 62) ^ (lfsr >> 60) ^
                 (lfsr >> 59)) & 1u;
            lfsr = (lfsr << 1) | bit;
            out = (out << 1) | bit;
        }
        return out;
    };
    const std::size_t nbits = data.size();
    for (std::size_t i = 0; i < nbits; i += 64) {
        const std::uint64_t key = next_word();
        const std::size_t lim = std::min<std::size_t>(64, nbits - i);
        for (std::size_t b = 0; b < lim; ++b) {
            if ((key >> b) & 1u)
                data.flip(i + b);
        }
    }
}

} // namespace nand
} // namespace rif
