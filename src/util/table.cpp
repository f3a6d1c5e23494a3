#include "util/table.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace dtrank::util
{

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header))
{
    require(!header_.empty(), "TablePrinter: header must not be empty");
}

void
TablePrinter::addRow(std::vector<std::string> row)
{
    require(row.size() == header_.size(),
            "TablePrinter::addRow: cell count mismatch");
    rows_.push_back(std::move(row));
}

void
TablePrinter::addSeparator()
{
    rows_.emplace_back();
}

void
TablePrinter::print(std::ostream &os) const
{
    std::vector<std::size_t> width(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit_cells = [&](const std::vector<std::string> &cells) {
        // The first column is left-aligned, the others right-aligned.
        os << cells[0] << std::string(width[0] - cells[0].size(), ' ');
        for (std::size_t c = 1; c < cells.size(); ++c)
            os << "  " << std::string(width[c] - cells[c].size(), ' ')
               << cells[c];
        os << '\n';
    };

    auto emit_rule = [&]() {
        std::size_t total = 0;
        for (std::size_t c = 0; c < width.size(); ++c)
            total += width[c] + (c > 0 ? 2 : 0);
        os << std::string(total, '-') << '\n';
    };

    emit_cells(header_);
    emit_rule();
    for (const auto &row : rows_) {
        if (row.empty())
            emit_rule();
        else
            emit_cells(row);
    }
}

std::string
TablePrinter::toString() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

} // namespace dtrank::util
