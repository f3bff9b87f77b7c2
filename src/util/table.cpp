#include "util/table.hpp"

#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "util/log.hpp"

namespace nvfs::util {

TextTable::TextTable(std::vector<std::string> headers,
                     std::vector<Align> aligns)
    : headers_(std::move(headers)), aligns_(std::move(aligns))
{
    NVFS_REQUIRE(!headers_.empty(), "table needs at least one column");
    if (aligns_.empty()) {
        aligns_.assign(headers_.size(), Align::Right);
        aligns_[0] = Align::Left;
    }
    NVFS_REQUIRE(aligns_.size() == headers_.size(),
                 "alignment count mismatch");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    NVFS_REQUIRE(cells.size() == headers_.size(), "row width mismatch");
    rows_.push_back(std::move(cells));
}

void
TextTable::addSeparator()
{
    rows_.emplace_back(); // sentinel
}

std::string
TextTable::render(const std::string &title) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        if (row.empty())
            continue;
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto pad = [&](const std::string &s, std::size_t w, Align a) {
        if (s.size() >= w)
            return s;
        const std::string fill(w - s.size(), ' ');
        return a == Align::Left ? s + fill : fill + s;
    };

    std::size_t line_width = headers_.size() * 2;
    for (auto w : widths)
        line_width += w;
    const std::string rule(line_width, '-');

    std::ostringstream out;
    if (!title.empty())
        out << title << "\n";
    out << rule << "\n";
    for (std::size_t c = 0; c < headers_.size(); ++c)
        out << pad(headers_[c], widths[c], aligns_[c]) << "  ";
    out << "\n" << rule << "\n";
    for (const auto &row : rows_) {
        if (row.empty()) {
            out << rule << "\n";
            continue;
        }
        for (std::size_t c = 0; c < row.size(); ++c)
            out << pad(row[c], widths[c], aligns_[c]) << "  ";
        out << "\n";
    }
    out << rule << "\n";
    return out.str();
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list again;
    va_copy(again, args);
    char buf[1024];
    const int length = std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    std::string out;
    if (length >= static_cast<int>(sizeof(buf))) {
        // Too long for the stack buffer: format again at full size.
        out.resize(static_cast<std::size_t>(length));
        std::vsnprintf(out.data(), out.size() + 1, fmt, again);
    } else if (length > 0) {
        out.assign(buf, static_cast<std::size_t>(length));
    }
    va_end(again);
    return out;
}

} // namespace nvfs::util
