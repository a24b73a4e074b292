#include "report/csv_table.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/number_codec.hpp"

namespace ps::report {
namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

bool CsvTable::load(const std::string& path, CsvTable& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "csv: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  if (!parse(text.str(), out, &error)) {
    std::fprintf(stderr, "csv: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

bool CsvTable::parse(const std::string& text, CsvTable& out,
                     std::string* error) {
  out = CsvTable();
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string cell;
  bool in_quotes = false;
  // True once the current record has any content (a cell boundary or a
  // character); distinguishes a trailing newline from an empty final record.
  bool record_started = false;

  const auto end_cell = [&] {
    record.push_back(std::move(cell));
    cell.clear();
    record_started = true;
  };
  const auto end_record = [&] {
    end_cell();
    records.push_back(std::move(record));
    record.clear();
    record_started = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += ch;
      }
      continue;
    }
    switch (ch) {
      case '"':
        // Only a cell that starts with a quote is a quoted cell; a quote in
        // the middle of a bare cell is kept verbatim (lenient, like most
        // readers — the writer never produces it).
        if (cell.empty()) {
          in_quotes = true;
          record_started = true;  // "" at EOF is still a cell
        } else {
          cell += ch;
        }
        break;
      case ',':
        end_cell();
        break;
      case '\r':
        if (i + 1 < text.size() && text[i + 1] == '\n') break;  // CRLF
        end_record();
        break;
      case '\n':
        end_record();
        break;
      default:
        cell += ch;
        record_started = true;
        break;
    }
  }
  if (in_quotes) {
    set_error(error, "unterminated quoted cell");
    return false;
  }
  if (record_started || !cell.empty()) end_record();  // no trailing newline

  if (records.empty()) {
    set_error(error, "empty CSV (no header row)");
    return false;
  }
  out.header_ = std::move(records.front());
  for (std::size_t r = 1; r < records.size(); ++r) {
    if (records[r].size() != out.header_.size()) {
      set_error(error, "row " + std::to_string(r) + " has " +
                           std::to_string(records[r].size()) +
                           " cell(s), header has " +
                           std::to_string(out.header_.size()));
      out = CsvTable();
      return false;
    }
    out.rows_.push_back(std::move(records[r]));
  }
  return true;
}

std::ptrdiff_t CsvTable::column(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

bool CsvTable::numeric_cell(std::size_t row, std::size_t col,
                            double& value) const {
  double parsed = 0.0;
  if (!util::parse_double(rows_[row][col], parsed)) return false;
  value = parsed;
  return true;
}

}  // namespace ps::report
