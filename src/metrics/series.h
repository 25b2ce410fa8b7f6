// Experiment series collection for the benchmark harness.
//
// Every figure in Sec. V is a set of series over one sweep variable
// (#tasks, input size, ...). SeriesCollector accumulates repeated
// measurements per (x, series) cell, averages them, and renders the
// console table / CSV that the bench binaries print — the "rows the paper
// reports".
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table.h"

namespace mecsched::metrics {

class SeriesCollector {
 public:
  SeriesCollector(std::string x_label, std::vector<std::string> series_names);

  // Adds one measurement of `series` at sweep position `x`. Repeated calls
  // with the same (x, series) average (repetitions over seeds).
  void add(double x, const std::string& series, double value);

  // Mean of the accumulated cell; NaN if empty.
  double mean(double x, const std::string& series) const;

  // Sample count of the cell; 0 if absent.
  std::size_t count(double x, const std::string& series) const;

  std::vector<double> xs() const;
  const std::vector<std::string>& series_names() const { return names_; }

  // One row per x, one column per series (means), plus the x column.
  Table to_table(int precision = 3) const;

  // Writes the same grid as CSV.
  void write_csv(const std::string& path, int precision = 6) const;
  // Same rows to an already-open stream (e.g. stdout for `mecsched sweep
  // --csv`). Row content is identical to the file variant.
  void write_csv(std::ostream& out, int precision = 6) const;

 private:
  // Header + data rows, shared by both write_csv overloads.
  std::vector<std::vector<std::string>> csv_rows(int precision) const;

  std::string x_label_;
  std::vector<std::string> names_;
  std::map<double, std::map<std::string, Summary>> cells_;
};

}  // namespace mecsched::metrics
