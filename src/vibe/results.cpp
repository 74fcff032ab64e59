#include "vibe/results.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace vibe::suite {

ResultTable::ResultTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void ResultTable::addRow(std::vector<double> values) {
  if (values.size() != columns_.size()) {
    throw std::invalid_argument("ResultTable::addRow: wrong column count");
  }
  rows_.push_back(std::move(values));
}

double ResultTable::at(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

std::size_t ResultTable::columnIndex(const std::string& name) const {
  auto it = std::find(columns_.begin(), columns_.end(), name);
  if (it == columns_.end()) {
    throw std::invalid_argument("ResultTable: no column " + name);
  }
  return static_cast<std::size_t>(it - columns_.begin());
}

namespace {
std::string formatCell(double v, int precision) {
  if (std::isnan(v)) return "n/s";
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  std::string s = os.str();
  // Trim trailing zeros but keep at least one decimal for non-integers.
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s;
}
}  // namespace

std::string ResultTable::renderText(int precision) const {
  std::vector<std::size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> cells(rows_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    cells[r].resize(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      cells[r][c] = formatCell(rows_[r][c], precision);
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  std::ostringstream os;
  os << "== " << title_ << " ==\n";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << (c ? "  " : "") << std::setw(static_cast<int>(widths[c]))
       << columns_[c];
  }
  os << '\n';
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << (c ? "  " : "") << std::string(widths[c], '-');
  }
  os << '\n';
  for (const auto& row : cells) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      os << (c ? "  " : "") << std::setw(static_cast<int>(widths[c])) << row[c];
    }
    os << '\n';
  }
  return os.str();
}

std::string ResultTable::renderCsv(int precision) const {
  std::ostringstream os;
  os << std::setprecision(precision);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << (c ? "," : "") << columns_[c];
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      os << (c ? "," : "");
      if (std::isnan(row[c])) {
        os << "";
      } else {
        os << row[c];
      }
    }
    os << '\n';
  }
  return os.str();
}

std::string ResultTable::renderJson() const {
  std::string out = "{\"title\":\"" + obs::jsonEscape(title_) + '"';
  out += ",\"columns\":[";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c) out += ',';
    out += '"' + obs::jsonEscape(columns_[c]) + '"';
  }
  out += "],\"rows\":[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r) out += ',';
    out += '[';
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c) out += ',';
      out += obs::jsonNumber(rows_[r][c]);
    }
    out += ']';
  }
  out += "]}";
  return out;
}

std::ostream& operator<<(std::ostream& os, const ResultTable& t) {
  return os << t.renderText();
}

std::vector<std::uint64_t> paperMessageSizes() {
  return {4,    16,   64,    256,   1024,  2048,
          4096, 8192, 12288, 20480, 28672};
}

std::vector<std::uint64_t> paperBufferSizes() {
  return {4, 16, 64, 256, 1024, 4096, 12288, 20480, 28672};
}

std::vector<std::uint64_t> extendedBufferSizes() {
  return {4,        1024,      4096,      65536,     262144,
          1048576,  4194304,   16777216,  33554432};
}

}  // namespace vibe::suite
