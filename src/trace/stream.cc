#include "trace/stream.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <string_view>

#include "common/logging.h"

namespace rif {
namespace trace {

namespace {

/** Split `line` on commas into at most `fields.size()` trimmed views;
 *  returns the field count, or -1 when there are too many fields. */
int
splitFields(std::string_view line, std::array<std::string_view, 8> &fields)
{
    int n = 0;
    std::size_t pos = 0;
    while (true) {
        const std::size_t comma = line.find(',', pos);
        std::string_view f =
            comma == std::string_view::npos
                ? line.substr(pos)
                : line.substr(pos, comma - pos);
        while (!f.empty() && std::isspace(static_cast<unsigned char>(
                                 f.front())))
            f.remove_prefix(1);
        while (!f.empty() &&
               std::isspace(static_cast<unsigned char>(f.back())))
            f.remove_suffix(1);
        if (n == static_cast<int>(fields.size()))
            return -1;
        fields[static_cast<std::size_t>(n++)] = f;
        if (comma == std::string_view::npos)
            return n;
        pos = comma + 1;
    }
}

/** `path:line:` prefix every validation fatal leads with. */
std::string
lineRef(const std::string &path, std::uint64_t line_no)
{
    return path + ":" + std::to_string(line_no);
}

std::uint64_t
parseU64Field(std::string_view field, const std::string &path,
              std::uint64_t line_no, const char *what)
{
    std::uint64_t out = 0;
    const auto res =
        std::from_chars(field.data(), field.data() + field.size(), out);
    if (res.ec != std::errc{} || res.ptr != field.data() + field.size())
        fatal(lineRef(path, line_no), ": malformed ", what, " '",
              std::string(field), "'");
    return out;
}

double
parseDoubleField(std::string_view field, const std::string &path,
                 std::uint64_t line_no, const char *what)
{
    double out = 0.0;
    const auto res =
        std::from_chars(field.data(), field.data() + field.size(), out);
    if (res.ec != std::errc{} || res.ptr != field.data() + field.size() ||
        !std::isfinite(out) || out < 0.0)
        fatal(lineRef(path, line_no), ": malformed ", what, " '",
              std::string(field), "'");
    return out;
}

/** Fatal `path:line:` report of a timestamp past the 64-bit tick clock. */
[[noreturn]] void
timestampOverflow(const std::string &path, std::uint64_t line_no)
{
    fatal(lineRef(path, line_no),
          ": timestamp overflows the 64-bit nanosecond clock");
}

/** An integer timestamp of `ns_per_unit` ns units, in ticks. */
Tick
scaledTimestamp(std::uint64_t count, std::uint64_t ns_per_unit,
                const std::string &path, std::uint64_t line_no)
{
    if (count > ~std::uint64_t(0) / ns_per_unit)
        timestampOverflow(path, line_no);
    return count * ns_per_unit;
}

bool
parseOpField(std::string_view field, const std::string &path,
             std::uint64_t line_no)
{
    if (field == "R" || field == "r" || field == "Read" ||
        field == "read" || field == "READ")
        return true;
    if (field == "W" || field == "w" || field == "Write" ||
        field == "write" || field == "WRITE")
        return false;
    fatal(lineRef(path, line_no), ": malformed op '", std::string(field),
          "' (expected R|W)");
}

/** Convert a byte extent to the [lpn, lpn+pages) page extent. */
void
bytesToPages(std::uint64_t offset, std::uint64_t length,
             const std::string &path, std::uint64_t line_no, IoRecord &out)
{
    if (length == 0)
        fatal(lineRef(path, line_no), ": zero-length request");
    if (length > ~std::uint64_t(0) - offset)
        fatal(lineRef(path, line_no), ": offset + length overflows");
    out.lpn = offset / kTracePageBytes;
    const std::uint64_t pages =
        (offset % kTracePageBytes + length + kTracePageBytes - 1) /
        kTracePageBytes;
    if (pages > 0xffffffffull)
        fatal(lineRef(path, line_no), ": request spans ", pages,
              " pages (exceeds the 32-bit request limit)");
    out.pages = static_cast<std::uint32_t>(pages);
}

/**
 * Parse one line. Returns false for blank/comment lines; fatal (with
 * `path:line:` context) on anything malformed. `absTime` is the
 * record's absolute timestamp in ticks of its own epoch — callers
 * rebase against the first record.
 */
bool
parseTraceLine(std::string_view line, TraceFormat format,
               const std::string &path, std::uint64_t line_no,
               IoRecord &out, std::uint64_t &absTime)
{
    // Tolerate Windows line endings in MSR files.
    if (!line.empty() && line.back() == '\r')
        line.remove_suffix(1);
    if (line.empty() || line[0] == '#')
        return false;

    std::array<std::string_view, 8> f;
    const int n = splitFields(line, f);
    absTime = 0;

    switch (format) {
    case TraceFormat::Csv: {
        if (n != 3 && n != 4)
            fatal(lineRef(path, line_no),
                  ": malformed line (expected R|W,<lpn>,<pages>"
                  "[,<arrival_us>], got ", n, " fields)");
        out.isRead = parseOpField(f[0], path, line_no);
        out.lpn = parseU64Field(f[1], path, line_no, "lpn");
        const std::uint64_t pages =
            parseU64Field(f[2], path, line_no, "page count");
        if (pages == 0)
            fatal(lineRef(path, line_no), ": zero-length request");
        if (pages > 0xffffffffull)
            fatal(lineRef(path, line_no), ": request spans ", pages,
                  " pages (exceeds the 32-bit request limit)");
        out.pages = static_cast<std::uint32_t>(pages);
        if (n == 4) {
            const double us =
                parseDoubleField(f[3], path, line_no, "arrival_us");
            // usToTicks is defined only below 2^64 ns (exact in double).
            if (us * static_cast<double>(kNsPerUs) + 0.5 >= 0x1p64)
                timestampOverflow(path, line_no);
            absTime = usToTicks(us);
        }
        break;
    }
    case TraceFormat::Msr: {
        if (n != 7)
            fatal(lineRef(path, line_no),
                  ": malformed MSR line (expected 7 fields, got ", n,
                  ")");
        // Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime;
        // filetime ticks are 100 ns.
        absTime = scaledTimestamp(
            parseU64Field(f[0], path, line_no, "timestamp"), 100, path,
            line_no);
        out.isRead = parseOpField(f[3], path, line_no);
        const std::uint64_t offset =
            parseU64Field(f[4], path, line_no, "byte offset");
        const std::uint64_t length =
            parseU64Field(f[5], path, line_no, "byte size");
        bytesToPages(offset, length, path, line_no, out);
        break;
    }
    case TraceFormat::Alibaba: {
        if (n != 5)
            fatal(lineRef(path, line_no),
                  ": malformed Alibaba line (expected 5 fields, got ",
                  n, ")");
        // device_id,opcode,offset,length,timestamp (bytes, us).
        out.isRead = parseOpField(f[1], path, line_no);
        const std::uint64_t offset =
            parseU64Field(f[2], path, line_no, "byte offset");
        const std::uint64_t length =
            parseU64Field(f[3], path, line_no, "byte length");
        bytesToPages(offset, length, path, line_no, out);
        absTime = scaledTimestamp(
            parseU64Field(f[4], path, line_no, "timestamp"), 1000, path,
            line_no);
        break;
    }
    }

    if (out.pages > ~std::uint64_t(0) - out.lpn)
        fatal(lineRef(path, line_no), ": lpn + pages overflows");
    return true;
}

} // namespace

const char *
traceFormatName(TraceFormat f)
{
    switch (f) {
    case TraceFormat::Csv:
        return "csv";
    case TraceFormat::Msr:
        return "msr";
    case TraceFormat::Alibaba:
        return "alibaba";
    }
    return "?";
}

bool
parseTraceFormat(const std::string &name, TraceFormat &out)
{
    if (name == "csv")
        out = TraceFormat::Csv;
    else if (name == "msr")
        out = TraceFormat::Msr;
    else if (name == "alibaba")
        out = TraceFormat::Alibaba;
    else
        return false;
    return true;
}

TraceFormat
detectTraceFormat(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '", path, "'");
    std::string line;
    while (std::getline(in, line)) {
        std::string_view v(line);
        if (!v.empty() && v.back() == '\r')
            v.remove_suffix(1);
        if (v.empty() || v[0] == '#')
            continue;
        std::array<std::string_view, 8> f;
        const int n = splitFields(v, f);
        // The field count separates the dialects; the opcode column
        // confirms (R/W in columns 0, 1 and 3 respectively).
        if (n == 3 || n == 4)
            return TraceFormat::Csv;
        if (n == 5)
            return TraceFormat::Alibaba;
        if (n == 7)
            return TraceFormat::Msr;
        fatal(path, ":1: unrecognized trace dialect (", n,
              " fields; expected 3-4 [csv], 5 [alibaba] or 7 [msr])");
    }
    fatal("trace file '", path, "' contains no requests");
}

TraceScan
scanTraceFile(const std::string &path, TraceFormat format)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '", path, "'");

    TraceScan scan;
    Hasher hasher;
    hasher.add("rif-trace-scan");
    hasher.add(static_cast<int>(format));

    std::string line;
    std::uint64_t line_no = 0;
    std::uint64_t base = 0;
    bool have_base = false;
    Tick last = 0;
    IoRecord rec;
    std::uint64_t abs_time = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (!parseTraceLine(line, format, path, line_no, rec, abs_time))
            continue;
        if (!have_base) {
            base = abs_time;
            have_base = true;
        }
        const Tick rel = abs_time >= base ? abs_time - base : 0;
        last = std::max(last, rel);

        ++scan.records;
        scan.totalPages += rec.pages;
        if (rec.isRead) {
            ++scan.readRecords;
        } else {
            scan.coldStart =
                std::max(scan.coldStart, rec.lpn + rec.pages);
        }
        scan.footprintPages =
            std::max(scan.footprintPages, rec.lpn + rec.pages);
        hasher.add(rec.isRead);
        hasher.add(rec.lpn);
        hasher.add(rec.pages);
    }
    if (scan.records == 0)
        fatal("trace file '", path, "' contains no requests");
    scan.span = last;
    scan.digest = hasher.finish();
    return scan;
}

StreamTrace::StreamTrace(const std::string &path)
    : StreamTrace(path, detectTraceFormat(path))
{
}

StreamTrace::StreamTrace(const std::string &path, TraceFormat format)
    : path_(path), format_(format), scan_(scanTraceFile(path, format)),
      in_(path)
{
    if (!in_)
        fatal("cannot open trace file '", path, "'");
}

bool
StreamTrace::next(IoRecord &out)
{
    std::uint64_t abs_time = 0;
    while (std::getline(in_, line_)) {
        ++lineNo_;
        if (!parseTraceLine(line_, format_, path_, lineNo_, out,
                            abs_time))
            continue;
        if (!haveBase_) {
            baseTime_ = abs_time;
            haveBase_ = true;
        }
        const Tick rel =
            abs_time >= baseTime_ ? abs_time - baseTime_ : 0;
        // Arrivals never regress: unsorted tails inject immediately.
        lastArrival_ = std::max(lastArrival_, rel);
        out.arrival = lastArrival_;
        return true;
    }
    return false;
}

std::uint64_t
StreamTrace::footprintPages() const
{
    return scan_.footprintPages;
}

std::uint64_t
StreamTrace::coldRegionStart() const
{
    return scan_.coldStart;
}

bool
StreamTrace::preconditionDigest(Hasher &h) const
{
    h.add("stream-trace");
    h.add(scan_.footprintPages);
    h.add(scan_.coldStart);
    h.add(scan_.digest.lo);
    h.add(scan_.digest.hi);
    return true;
}

} // namespace trace
} // namespace rif
