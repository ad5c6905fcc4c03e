/**
 * @file
 * Shared helpers for the figure/table scenarios: workload-size scaling
 * and common formatting. Every scenario reports the rows or series of
 * one table/figure from the paper; absolute values differ from the
 * authors' testbed but the shape must match (see EXPERIMENTS.md).
 */

#ifndef RIF_BENCH_BENCH_UTIL_H
#define RIF_BENCH_BENCH_UTIL_H

#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

namespace rif {
namespace bench {

/**
 * base * scale as a count: at least 1, clamped to INT_MAX instead of
 * overflowing the int cast, and 1 for non-positive/non-finite scales.
 */
inline int
scaled(std::uint64_t base, double scale)
{
    if (!std::isfinite(scale) || !(scale > 0.0))
        return 1;
    const double v = static_cast<double>(base) * scale;
    if (v >= static_cast<double>(std::numeric_limits<int>::max()))
        return std::numeric_limits<int>::max();
    const auto u = static_cast<std::uint64_t>(v);
    return static_cast<int>(u < 1 ? 1 : u);
}

inline void
header(const std::string &title, const std::string &paper_ref)
{
    std::cout << "##\n## " << title << "\n## Reproduces: " << paper_ref
              << "\n##\n";
}

} // namespace bench
} // namespace rif

#endif // RIF_BENCH_BENCH_UTIL_H
