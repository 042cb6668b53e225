// Order statistics and span arithmetic shared by every workload and by the
// traced run. Written once here and tested in tests/test_perfbench.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty sample.
double median(std::vector<double> values);

/// First quartile, median and third quartile, computed exactly as
/// Python's statistics.quantiles(values, n=4) (the default "exclusive"
/// method), so the spreads this program prints match the ones an external
/// checker computes. Needs at least two values; a single value is returned
/// as all three quartiles.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// The highest percentile of a fixed ladder (99, 95, 90, 75, 50) that has
/// at least `min_beyond` samples strictly above its nearest-rank position.
/// When no rung qualifies (fewer than 2 * min_beyond samples) no tail can
/// be estimated: the median is returned, `percentile` reads 50 and
/// `estimated` is false. `samples` and `beyond` say what the value rests
/// on; they are printed next to it.
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool estimated = true;
};
Tail tail_percentile(std::vector<double> values, std::size_t min_beyond = 10);

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// A closed-open time interval in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time of a span: its duration minus the part of it that the union
/// of its children's intervals covers. Children may overlap each other
/// (parallel children) and may stick out of the parent; only the covered
/// part inside the parent is subtracted, so the result is never negative.
std::int64_t self_time(const Interval& parent,
                       std::vector<Interval> children);

}  // namespace perfbench
