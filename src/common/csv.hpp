/**
 * @file
 * Small CSV reader/writer used by the topology front-end and the report
 * writers. Handles comments (#), blank lines, and whitespace trimming;
 * quoting is not needed for SCALE-Sim style files.
 */

#ifndef SCALESIM_COMMON_CSV_HH
#define SCALESIM_COMMON_CSV_HH

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace scalesim
{

/** Trim ASCII whitespace from both ends. */
std::string trim(std::string_view text);

/** Split one CSV line into trimmed cells; trailing empty cell dropped. */
std::vector<std::string> splitCsvLine(std::string_view line);

/**
 * Parsed CSV table: a header row plus data rows. Rows shorter than the
 * header are padded with empty cells.
 */
class CsvTable
{
  public:
    /** Parse from an input stream. First non-comment row is the header. */
    static CsvTable parse(std::istream& in);

    const std::vector<std::string>& header() const { return header_; }
    std::size_t numRows() const { return rows_.size(); }
    const std::vector<std::string>& row(std::size_t i) const
    {
        return rows_[i];
    }

    /**
     * Column index whose header matches `name` case-insensitively and
     * ignoring spaces/underscores, or -1 when absent ("IFMAP Height"
     * matches "ifmap_height").
     */
    int findColumn(std::string_view name) const;

    /** Cell accessor by row index and column name; "" when missing. */
    std::string cell(std::size_t row, std::string_view column) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Incremental CSV writer for the report files (COMPUTE_REPORT.csv etc.).
 */
class CsvWriter
{
  public:
    explicit CsvWriter(std::ostream& out) : out_(out) {}

    /** Write one row from string cells. */
    void writeRow(const std::vector<std::string>& cells);

  private:
    std::ostream& out_;
};

} // namespace scalesim

#endif // SCALESIM_COMMON_CSV_HH
