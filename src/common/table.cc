#include "common/table.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "common/logging.h"

namespace rif {

Table::Table(std::string title)
    : title_(std::move(title))
{
}

void
Table::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::addRow(std::vector<std::string> row)
{
    RIF_ASSERT(header_.empty() || row.size() == header_.size(),
               "row width must match header width");
    rows_.push_back(std::move(row));
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
Table::num(std::uint64_t v)
{
    return std::to_string(v);
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    auto grow = [&](const std::vector<std::string> &row) {
        if (row.size() > widths.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    grow(header_);
    for (const auto &r : rows_)
        grow(r);

    if (!title_.empty())
        os << "== " << title_ << " ==\n";

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << row[i];
        }
        os << '\n';
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (auto w : widths)
            total += w + 2;
        os << std::string(total, '-') << '\n';
    }
    for (const auto &r : rows_)
        emit(r);
    os.flush();
}

void
Table::printCsv(std::ostream &os) const
{
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                os << ',';
            os << row[i];
        }
        os << '\n';
    };
    if (!header_.empty())
        emit(header_);
    for (const auto &r : rows_)
        emit(r);
}

} // namespace rif
