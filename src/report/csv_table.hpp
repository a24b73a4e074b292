// In-memory view of one aggregated sweep CSV — the exact schema
// write_results_csv emits (docs/csv-schema.md): a header row naming the
// columns, then one row per scenario, RFC-4180 quoting, empty cells where a
// statistic is undefined. This is the read side the repo never had: every
// consumer of the sweep CSVs so far lived in a user's notebook.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ps::report {

/// Parsed CSV: a header plus rows of string cells, every row exactly as wide
/// as the header. Loading is loud and fails closed — a ragged row, an
/// unterminated quote, or an empty file is an error, never a silently
/// truncated table.
class CsvTable {
 public:
  /// Reads and parses `path`. On failure prints a diagnostic naming the
  /// path to stderr and returns false; `out` is left empty.
  static bool load(const std::string& path, CsvTable& out);

  /// Parses CSV text (RFC-4180: `""` escapes inside quoted cells, quoted
  /// cells may contain commas and newlines, CRLF tolerated). On failure
  /// stores a message in `error` (when non-null) and returns false.
  static bool parse(const std::string& text, CsvTable& out,
                    std::string* error = nullptr);

  const std::vector<std::string>& header() const { return header_; }
  std::size_t num_rows() const { return rows_.size(); }

  /// Index of the column named `name`, or -1 when the header lacks it.
  std::ptrdiff_t column(const std::string& name) const;

  const std::string& cell(std::size_t row, std::size_t col) const {
    return rows_[row][col];
  }

  /// Numeric read of a cell through util::parse_double, the inverse of the
  /// writer's format_param. Returns false for an empty cell — the CSV's
  /// "statistic undefined" encoding — or text that is not a whole decimal
  /// number; `value` is untouched then.
  bool numeric_cell(std::size_t row, std::size_t col, double& value) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ps::report
