// Result tables: what every VIBe micro-benchmark produces and what the
// bench binaries print. Supports aligned-text (paper-style) and CSV output.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace vibe::suite {

/// A labelled grid of numbers: one row per parameter point, one column per
/// metric (or per VIA implementation, as in the paper's figures).
class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> columns);

  const std::string& title() const { return title_; }
  const std::vector<std::string>& columns() const { return columns_; }

  /// Adds a row; size must equal the column count. Use NaN (via
  /// std::numeric_limits) for "not supported" cells — rendered as "n/s".
  void addRow(std::vector<double> values);

  double at(std::size_t row, std::size_t col) const;
  /// Column index by name; throws if absent.
  std::size_t columnIndex(const std::string& name) const;

  /// Paper-style aligned text table.
  std::string renderText(int precision = 2) const;
  /// Machine-readable CSV (header + rows). "Not supported" (NaN) cells are
  /// emitted as empty cells — never the human-readable "n/s" marker.
  std::string renderCsv(int precision = 6) const;
  /// Machine-readable JSON object: {"title","columns","rows"}; NaN cells
  /// become null (JSON has no NaN literal). Enabled per-bench by VIBE_JSON=1.
  std::string renderJson() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
};

std::ostream& operator<<(std::ostream& os, const ResultTable& t);

/// Message-size sweep used by most figures: 4 B .. 28672 B doubling-ish,
/// matching the x-axis of the paper's plots.
std::vector<std::uint64_t> paperMessageSizes();

/// Registration sweep for Fig. 1/2: 4 B .. 28672 B (and extended variant
/// up to 32 MB for the deregistration claim).
std::vector<std::uint64_t> paperBufferSizes();
std::vector<std::uint64_t> extendedBufferSizes();

}  // namespace vibe::suite
