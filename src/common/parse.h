/**
 * @file
 * The one strict number parser of every text surface: the CLI
 * (`--set`, `--scale`) and the RIF_THREADS environment variable.
 */

#ifndef RIF_COMMON_PARSE_H
#define RIF_COMMON_PARSE_H

#include <charconv>
#include <optional>
#include <string_view>

namespace rif {

/**
 * Parse all of `text` as a T with std::from_chars: decimal digits, an
 * optional '-', and for floating point a fraction and exponent (plus
 * `inf`/`nan`, which callers reject by domain). Anything else — blanks,
 * '+', hex, trailing characters, overflow — yields nullopt.
 */
template <class T>
std::optional<T>
parseNumber(std::string_view text)
{
    T out{};
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, out);
    if (res.ec != std::errc{} || res.ptr != end)
        return std::nullopt;
    return out;
}

} // namespace rif

#endif // RIF_COMMON_PARSE_H
