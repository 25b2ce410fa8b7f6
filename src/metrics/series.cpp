#include "metrics/series.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "common/csv.h"
#include "common/error.h"

namespace mecsched::metrics {

SeriesCollector::SeriesCollector(std::string x_label,
                                 std::vector<std::string> series_names)
    : x_label_(std::move(x_label)), names_(std::move(series_names)) {
  MECSCHED_REQUIRE(!names_.empty(), "need at least one series");
}

void SeriesCollector::add(double x, const std::string& series, double value) {
  MECSCHED_REQUIRE(
      std::find(names_.begin(), names_.end(), series) != names_.end(),
      "unknown series: " + series);
  cells_[x][series].add(value);
}

double SeriesCollector::mean(double x, const std::string& series) const {
  const auto row = cells_.find(x);
  if (row == cells_.end()) return std::numeric_limits<double>::quiet_NaN();
  const auto cell = row->second.find(series);
  if (cell == row->second.end() || cell->second.count() == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return cell->second.mean();
}

std::size_t SeriesCollector::count(double x, const std::string& series) const {
  const auto row = cells_.find(x);
  if (row == cells_.end()) return 0;
  const auto cell = row->second.find(series);
  return cell == row->second.end() ? 0 : cell->second.count();
}

std::vector<double> SeriesCollector::xs() const {
  std::vector<double> out;
  out.reserve(cells_.size());
  for (const auto& [x, row] : cells_) out.push_back(x);
  return out;
}

namespace {
// Sweep positions are usually integers (task counts, kB) but sometimes
// ratios; print whole numbers without decimals and fractions with two.
std::string format_x(double x) {
  return Table::num(x, x == static_cast<double>(static_cast<long long>(x))
                           ? 0
                           : 2);
}
}  // namespace

Table SeriesCollector::to_table(int precision) const {
  std::vector<std::string> header = {x_label_};
  header.insert(header.end(), names_.begin(), names_.end());
  Table t(std::move(header));
  for (const auto& [x, row] : cells_) {
    std::vector<std::string> cells = {format_x(x)};
    for (const std::string& name : names_) {
      const auto cell = row.find(name);
      cells.push_back(cell == row.end() || cell->second.count() == 0
                          ? "-"
                          : Table::num(cell->second.mean(), precision));
    }
    t.add_row(std::move(cells));
  }
  return t;
}

std::vector<std::vector<std::string>> SeriesCollector::csv_rows(
    int precision) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(cells_.size() + 1);
  std::vector<std::string> header = {x_label_};
  header.insert(header.end(), names_.begin(), names_.end());
  rows.push_back(std::move(header));
  for (const auto& [x, row] : cells_) {
    std::vector<std::string> cells = {format_x(x)};
    for (const std::string& name : names_) {
      const auto cell = row.find(name);
      cells.push_back(cell == row.end() || cell->second.count() == 0
                          ? ""
                          : Table::num(cell->second.mean(), precision));
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

void SeriesCollector::write_csv(const std::string& path, int precision) const {
  std::vector<std::vector<std::string>> rows = csv_rows(precision);
  CsvWriter csv(path, rows.front());
  for (std::size_t i = 1; i < rows.size(); ++i) csv.write_row(rows[i]);
}

void SeriesCollector::write_csv(std::ostream& out, int precision) const {
  for (const std::vector<std::string>& row : csv_rows(precision)) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << CsvWriter::escape(row[i]);
    }
    out << '\n';
  }
}

}  // namespace mecsched::metrics
