#include "util/table.hpp"

#include <cassert>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace ps::util {

std::string format_number(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return buf;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& value) {
  assert(!rows_.empty());
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }
Table& Table::cell(double value) { return cell(format_number(value)); }
Table& Table::cell(int value) { return cell(std::to_string(value)); }
Table& Table::cell(std::size_t value) { return cell(std::to_string(value)); }

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  if (!caption_.empty()) os << caption_ << '\n';
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& v = c < row.size() ? row[c] : std::string();
      os << "| " << v << std::string(widths[c] - v.size() + 1, ' ');
    }
    os << "|\n";
  };
  emit_row(header_);
  for (std::size_t c = 0; c < widths.size(); ++c) {
    os << "|" << std::string(widths[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void Table::print(std::ostream& os) const { os << to_string(); }

void Table::print() const { print(std::cout); }

}  // namespace ps::util
