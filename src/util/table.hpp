#pragma once
// Minimal fixed-width text-table printer used by the benchmark harnesses to
// print paper-style result tables.

#include <string>
#include <vector>

namespace gfi {

/// Accumulates rows of strings and renders an aligned ASCII table.
class TextTable {
public:
    /// Sets the header row (also defines the column count).
    void setHeader(std::vector<std::string> header);

    /// Appends a data row; short rows are padded with empty cells.
    void addRow(std::vector<std::string> row);

    /// Inserts a horizontal separator line before the next row.
    void addSeparator();

    /// Renders the table to a string (trailing newline included).
    [[nodiscard]] std::string str() const;

    /// Renders the table directly to stdout.
    void print() const;

private:
    std::vector<std::string> header_;
    // Each row is either a list of cells or the sentinel "separator" flag.
    struct Row {
        std::vector<std::string> cells;
        bool separator = false;
    };
    std::vector<Row> rows_;
};

/// Writes rows as CSV (no quoting beyond doubling embedded quotes).
class CsvWriter {
public:
    /// Opens @p path for writing; throws std::runtime_error on failure.
    explicit CsvWriter(const std::string& path);

    /// Closes the file if close() did not, without reporting errors.
    ~CsvWriter();

    CsvWriter(const CsvWriter&) = delete;
    CsvWriter& operator=(const CsvWriter&) = delete;

    /// Writes one CSV row (not after close()).
    void writeRow(const std::vector<std::string>& cells);

    /// Closes the file; throws std::runtime_error "CsvWriter: write failed
    /// on <path>" if any write or the closing flush failed (a full disk
    /// often shows only at the flush).
    void close();

private:
    void* file_;
    std::string path_;
    bool failed_ = false;
};

} // namespace gfi
