// Small statistics helpers for tools/vbspaper and the benchmarks: running
// min/max, arithmetic and geometric means, ratio summaries.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace vbs {

/// Accumulates a sample set and reports the summary statistics the paper's
/// figures use (geometric mean with min/max error bars, average ratios).
class Summary {
 public:
  void add(double v);

  std::size_t count() const { return n_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const;
  /// Geometric mean; samples must be > 0.
  double geomean() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double log_sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Geometric mean of a vector (empty -> 0).
double geomean(const std::vector<double>& xs);

/// Arithmetic mean of a vector (empty -> 0).
double mean(const std::vector<double>& xs);

/// p-th percentile of the sample, p in [0, 1], with linear interpolation
/// between the ranks straddling p * (n - 1) (the "type 7" / spreadsheet
/// definition). Rounding to the nearest rank instead would collapse p99
/// onto the max for any sample smaller than ~50 values. Sorts a copy;
/// empty -> 0.
double percentile(std::vector<double> xs, double p);

}  // namespace vbs
