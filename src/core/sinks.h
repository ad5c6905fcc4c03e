/**
 * @file
 * Structured result emission for the scenario layer. A scenario body
 * produces a banner, tables and free-form commentary through a
 * ResultSink; the sink chosen at runtime (`--format=table|csv|jsonl`)
 * decides how they land on the stream:
 *
 *  - TableSink reproduces the classic bench output byte-for-byte
 *    (aligned tables, prose notes).
 *  - CsvSink keeps only the data: each table as CSV rows behind a
 *    `# == title ==` marker comment, prose dropped.
 *  - JsonlSink emits one JSON object per table row, keyed by the
 *    column headers, for downstream tooling.
 */

#ifndef RIF_CORE_SINKS_H
#define RIF_CORE_SINKS_H

#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

#include "common/table.h"

namespace rif {
namespace core {

/** Output format of a ResultSink, selected by `--format`. */
enum class SinkFormat
{
    Table, ///< aligned console tables + prose (the classic output)
    Csv,   ///< machine-readable rows, one CSV block per table
    Jsonl, ///< one JSON object per table row
};

/** Parse a `--format` value; nullopt for an unknown name. */
std::optional<SinkFormat> parseSinkFormat(const std::string &name);

/** Destination for everything a scenario reports. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Scenario banner: title plus the paper figure/table it covers. */
    virtual void header(const std::string &title,
                        const std::string &paper_ref) = 0;

    /** Emit one finished table. */
    virtual void table(const Table &t) = 0;

    /**
     * Free-form commentary, passed through verbatim by TableSink
     * (including newlines) and dropped by the data sinks.
     */
    virtual void text(const std::string &s) = 0;

    /** Stream-style convenience wrapper over text(). */
    template <typename... Args>
    void
    note(Args &&...args)
    {
        std::ostringstream os;
        (os << ... << std::forward<Args>(args));
        text(os.str());
    }
};

/** Classic bench output: `##` banner, aligned tables, prose notes. */
class TableSink : public ResultSink
{
  public:
    explicit TableSink(std::ostream &os)
        : os_(os)
    {
    }

    void header(const std::string &title,
                const std::string &paper_ref) override;
    void table(const Table &t) override;
    void text(const std::string &s) override;

  private:
    std::ostream &os_;
};

/** Data-only CSV: banner and table titles become `#` comments. */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::ostream &os)
        : os_(os)
    {
    }

    void header(const std::string &title,
                const std::string &paper_ref) override;
    void table(const Table &t) override;
    void text(const std::string &s) override;

  private:
    std::ostream &os_;
};

/** JSON-lines: one object per row keyed by the column headers. */
class JsonlSink : public ResultSink
{
  public:
    explicit JsonlSink(std::ostream &os)
        : os_(os)
    {
    }

    void header(const std::string &title,
                const std::string &paper_ref) override;
    void table(const Table &t) override;
    void text(const std::string &s) override;

  private:
    std::ostream &os_;
};

/**
 * Discards everything. `rif metrics <scenario>` runs the scenario body
 * through a NullSink so only the registry snapshot reaches the user.
 */
class NullSink : public ResultSink
{
  public:
    void header(const std::string &, const std::string &) override {}
    void table(const Table &) override {}
    void text(const std::string &) override {}
};

/** Build the sink for a format over the given stream. */
std::unique_ptr<ResultSink> makeSink(SinkFormat format, std::ostream &os);

} // namespace core
} // namespace rif

#endif // RIF_CORE_SINKS_H
