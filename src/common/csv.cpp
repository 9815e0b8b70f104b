#include "common/csv.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/log.hpp"

namespace scalesim
{

std::string
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(
               text[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(
               text[end - 1]))) {
        --end;
    }
    return std::string(text.substr(begin, end - begin));
}

std::vector<std::string>
splitCsvLine(std::string_view line)
{
    std::vector<std::string> cells;
    std::size_t start = 0;
    while (start <= line.size()) {
        std::size_t comma = line.find(',', start);
        if (comma == std::string_view::npos) {
            cells.push_back(trim(line.substr(start)));
            break;
        }
        cells.push_back(trim(line.substr(start, comma - start)));
        start = comma + 1;
    }
    // SCALE-Sim topology rows often end with a trailing comma.
    if (!cells.empty() && cells.back().empty())
        cells.pop_back();
    return cells;
}

namespace
{

// Canonical form for header matching: lowercase, no spaces/underscores.
std::string
canonical(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == ' ' || c == '_' || c == '\t')
            continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

} // namespace

CsvTable
CsvTable::parse(std::istream& in)
{
    CsvTable table;
    std::string line;
    bool have_header = false;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::string trimmed = trim(line);
        if (trimmed.empty() || trimmed[0] == '#')
            continue;
        auto cells = splitCsvLine(trimmed);
        if (cells.empty())
            continue;
        if (!have_header) {
            table.header_ = std::move(cells);
            have_header = true;
        } else {
            cells.resize(std::max(cells.size(), table.header_.size()));
            table.rows_.push_back(std::move(cells));
        }
    }
    return table;
}

int
CsvTable::findColumn(std::string_view name) const
{
    const std::string want = canonical(name);
    for (std::size_t i = 0; i < header_.size(); ++i) {
        if (canonical(header_[i]) == want)
            return static_cast<int>(i);
    }
    return -1;
}

std::string
CsvTable::cell(std::size_t row, std::string_view column) const
{
    int col = findColumn(column);
    if (col < 0 || row >= rows_.size())
        return "";
    const auto& cells = rows_[row];
    if (static_cast<std::size_t>(col) >= cells.size())
        return "";
    return cells[static_cast<std::size_t>(col)];
}

void
CsvWriter::writeRow(const std::vector<std::string>& cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            out_ << ",";
        out_ << cells[i];
    }
    out_ << "\n";
}

} // namespace scalesim
