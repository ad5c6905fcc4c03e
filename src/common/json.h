/**
 * @file
 * The one JSON string escaper shared by every JSON writer (the metrics
 * snapshot, the event trace and the jsonl result sink).
 */

#ifndef RIF_COMMON_JSON_H
#define RIF_COMMON_JSON_H

#include <string>
#include <string_view>

namespace rif {

/**
 * `s` escaped for use between the quotes of a JSON string: quote,
 * backslash, \n, \r and \t get their short escapes, every other control
 * character becomes \u00XX.
 */
inline std::string
jsonEscape(std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += kHex[(c >> 4) & 0xf];
                out += kHex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace rif

#endif // RIF_COMMON_JSON_H
