/**
 * @file
 * A small text-table formatter used by the benchmark harnesses to
 * print the paper's tables and figure series in aligned columns.
 */

#pragma once

#include <string>
#include <vector>

namespace nvfs::util {

/** Column alignment within a TextTable. */
enum class Align { Left, Right };

/**
 * Builds and renders a fixed set of columns with arbitrary rows.
 * Rendering pads every column to its widest cell.
 */
class TextTable
{
  public:
    /** Define the columns up front. */
    explicit TextTable(std::vector<std::string> headers,
                       std::vector<Align> aligns = {});

    /** Append a row; must match the number of columns. */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal separator row. */
    void addSeparator();

    /** Render with a title line, column header, separators. */
    std::string render(const std::string &title = "") const;

    /** Number of data rows added. */
    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<Align> aligns_;
    std::vector<std::vector<std::string>> rows_; // empty row = separator
};

/** printf-style helper returning std::string (of any length). */
std::string format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace nvfs::util
