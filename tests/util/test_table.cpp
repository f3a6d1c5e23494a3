/**
 * @file
 * Unit tests for the ASCII table printer.
 */

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/table.h"

namespace
{

using namespace dtrank;

TEST(TablePrinter, RejectsEmptyHeader)
{
    EXPECT_THROW(util::TablePrinter({}), util::InvalidArgument);
}

TEST(TablePrinter, RejectsMismatchedRow)
{
    util::TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), util::InvalidArgument);
    EXPECT_THROW(t.addRow({"1", "2", "3"}), util::InvalidArgument);
}

TEST(TablePrinter, RendersHeaderAndRule)
{
    util::TablePrinter t({"name", "value"});
    t.addRow({"x", "1"});
    const std::string out = t.toString();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("value"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_NE(out.find("x"), std::string::npos);
}

TEST(TablePrinter, FirstColumnLeftAlignedOthersRight)
{
    util::TablePrinter t({"aaaa", "bbbb"});
    t.addRow({"x", "1"});
    const std::string out = t.toString();
    // Find the data line.
    const auto last_nl = out.rfind('\n', out.size() - 2);
    const std::string data =
        out.substr(last_nl + 1, out.size() - last_nl - 2);
    // Left-aligned first cell: starts with 'x' then padding.
    EXPECT_EQ(data.substr(0, 4), "x   ");
    // Right-aligned second cell: ends with '1'.
    EXPECT_EQ(data.back(), '1');
}

TEST(TablePrinter, WidthAdaptsToWidestCell)
{
    util::TablePrinter t({"h"});
    t.addRow({"very-long-cell"});
    const std::string out = t.toString();
    // The rule line must be at least as wide as the longest cell.
    const auto first_nl = out.find('\n');
    const auto second_nl = out.find('\n', first_nl + 1);
    const std::string rule =
        out.substr(first_nl + 1, second_nl - first_nl - 1);
    EXPECT_GE(rule.size(), std::string("very-long-cell").size());
}

TEST(TablePrinter, SeparatorRendersRule)
{
    util::TablePrinter t({"a"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    const std::string out = t.toString();
    // Two rules total: one under the header, one mid-table.
    std::size_t rules = 0;
    std::size_t pos = 0;
    while ((pos = out.find("-\n", pos)) != std::string::npos) {
        ++rules;
        pos += 2;
    }
    EXPECT_EQ(rules, 2u);
}

} // namespace
