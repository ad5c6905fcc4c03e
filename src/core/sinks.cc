#include "core/sinks.h"

#include "common/json.h"
#include "common/logging.h"

namespace rif {
namespace core {

std::optional<SinkFormat>
parseSinkFormat(const std::string &name)
{
    if (name == "table")
        return SinkFormat::Table;
    if (name == "csv")
        return SinkFormat::Csv;
    if (name == "jsonl")
        return SinkFormat::Jsonl;
    return std::nullopt;
}

void
TableSink::header(const std::string &title, const std::string &paper_ref)
{
    // Byte-identical to the classic bench::header() banner.
    os_ << "##\n## " << title << "\n## Reproduces: " << paper_ref
        << "\n##\n";
}

void
TableSink::table(const Table &t)
{
    t.print(os_);
}

void
TableSink::text(const std::string &s)
{
    os_ << s;
}

void
CsvSink::header(const std::string &title, const std::string &paper_ref)
{
    os_ << "# " << title << "\n# Reproduces: " << paper_ref << "\n";
}

void
CsvSink::table(const Table &t)
{
    os_ << "# == " << t.title() << " ==\n";
    t.printCsv(os_);
    os_.flush();
}

void
CsvSink::text(const std::string &)
{
    // Prose is presentation-only; the CSV stream stays data.
}

void
JsonlSink::header(const std::string &title, const std::string &paper_ref)
{
    os_ << "{\"type\":\"header\",\"title\":\"" << jsonEscape(title)
        << "\",\"reproduces\":\"" << jsonEscape(paper_ref) << "\"}\n";
}

void
JsonlSink::table(const Table &t)
{
    const auto &head = t.headerRow();
    for (const auto &row : t.rows()) {
        os_ << "{\"type\":\"row\",\"table\":\"" << jsonEscape(t.title())
            << "\"";
        for (std::size_t i = 0; i < row.size(); ++i) {
            const std::string key = i < head.size()
                                        ? head[i]
                                        : "col" + std::to_string(i);
            os_ << ",\"" << jsonEscape(key) << "\":\""
                << jsonEscape(row[i]) << "\"";
        }
        os_ << "}\n";
    }
    os_.flush();
}

void
JsonlSink::text(const std::string &)
{
    // Prose is presentation-only; the JSONL stream stays data.
}

std::unique_ptr<ResultSink>
makeSink(SinkFormat format, std::ostream &os)
{
    switch (format) {
      case SinkFormat::Table:
        return std::make_unique<TableSink>(os);
      case SinkFormat::Csv:
        return std::make_unique<CsvSink>(os);
      case SinkFormat::Jsonl:
        return std::make_unique<JsonlSink>(os);
    }
    panic("unknown sink format");
}

} // namespace core
} // namespace rif
