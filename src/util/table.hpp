// Fixed-width ASCII table printer used by every experiment binary so that
// reproduced "tables" are uniform and diffable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ps::util {

/// Collects rows of string cells and prints them with aligned columns,
/// a header separator, and an optional caption. Numeric convenience
/// overloads format with %.4g.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Caption printed above the table, e.g. "E1: approximation ratio vs n".
  void set_caption(std::string caption) { caption_ = std::move(caption); }

  /// Starts a new row; subsequent cell() calls append to it.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value);
  Table& cell(int value);
  Table& cell(std::size_t value);

  std::size_t num_rows() const { return rows_.size(); }

  /// Renders the whole table.
  std::string to_string() const;
  void print(std::ostream& os) const;
  /// Prints to stdout.
  void print() const;

 private:
  std::string caption_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with %.4g (the table-wide numeric format).
std::string format_number(double value);

}  // namespace ps::util
