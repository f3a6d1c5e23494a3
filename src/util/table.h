/**
 * @file
 * ASCII table rendering used by the benchmark harness to print
 * paper-style tables and figure series.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dtrank::util
{

/**
 * Accumulates rows of string cells and renders an aligned ASCII table.
 *
 * Usage:
 * @code
 *     TablePrinter t({"benchmark", "NN^T", "MLP^T"});
 *     t.addRow({"astar", "0.91", "0.95"});
 *     t.print(std::cout);
 * @endcode
 */
class TablePrinter
{
  public:
    /** Creates a table with the given header cells; the first column
     *  is left-aligned, the others right-aligned. */
    explicit TablePrinter(std::vector<std::string> header);

    /** Appends a data row; must have exactly as many cells as the header. */
    void addRow(std::vector<std::string> row);

    /** Appends a horizontal separator line. */
    void addSeparator();

    /** Renders the table. */
    void print(std::ostream &os) const;

    /** Renders to a string (convenience for tests). */
    std::string toString() const;

  private:
    std::vector<std::string> header_;
    // Separator rows are encoded as empty vectors.
    std::vector<std::vector<std::string>> rows_;
};

} // namespace dtrank::util

